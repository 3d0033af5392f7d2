package txn

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/partition"
)

func TestLockSharedConcurrent(t *testing.T) {
	m := NewLockManager()
	var wg sync.WaitGroup
	var held int32
	var maxHeld int32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Acquire(1, Shared)
			h := atomic.AddInt32(&held, 1)
			for {
				cur := atomic.LoadInt32(&maxHeld)
				if h <= cur || atomic.CompareAndSwapInt32(&maxHeld, cur, h) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&held, -1)
			m.Release(1, Shared)
		}()
	}
	wg.Wait()
	if maxHeld < 2 {
		t.Errorf("shared locks never overlapped (max %d)", maxHeld)
	}
}

func TestLockExclusiveExcludes(t *testing.T) {
	m := NewLockManager()
	var inside int32
	var violations int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				m.Acquire(7, Exclusive)
				if atomic.AddInt32(&inside, 1) != 1 {
					atomic.AddInt32(&violations, 1)
				}
				atomic.AddInt32(&inside, -1)
				m.Release(7, Exclusive)
			}
		}()
	}
	wg.Wait()
	if violations != 0 {
		t.Errorf("%d mutual-exclusion violations", violations)
	}
}

func TestAcquireAllOrderedNoDeadlock(t *testing.T) {
	m := NewLockManager()
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		// Conflicting lock sets in opposite declaration order; ordered
		// acquisition must prevent deadlock.
		for i := 0; i < 20; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				ls := m.AcquireAll([]partition.ID{3}, []partition.ID{1, 2})
				time.Sleep(100 * time.Microsecond)
				ls.ReleaseAll()
			}()
			go func() {
				defer wg.Done()
				ls := m.AcquireAll([]partition.ID{1}, []partition.ID{2, 3})
				time.Sleep(100 * time.Microsecond)
				ls.ReleaseAll()
			}()
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: AcquireAll did not finish")
	}
}

func TestAcquireAllUpgradesDuplicates(t *testing.T) {
	m := NewLockManager()
	// Partition 5 appears as both read and write: must take Exclusive once.
	ls := m.AcquireAll([]partition.ID{5}, []partition.ID{5})
	acquired := make(chan struct{})
	go func() {
		m.Acquire(5, Shared)
		m.Release(5, Shared)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("shared lock granted while exclusive held")
	case <-time.After(20 * time.Millisecond):
	}
	ls.ReleaseAll()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("shared lock never granted after release")
	}
}

func TestContentionSignal(t *testing.T) {
	m := NewLockManager()
	m.Acquire(9, Exclusive)
	go m.Acquire(9, Exclusive) // will queue
	time.Sleep(10 * time.Millisecond)
	waiters, _ := m.Contention(9)
	if waiters != 1 {
		t.Errorf("waiters = %d, want 1", waiters)
	}
	m.Release(9, Exclusive)
}

func TestVersionVectorMergeMax(t *testing.T) {
	a := VersionVector{1: 5, 2: 3}
	b := VersionVector{2: 7, 3: 1}
	a.MergeMax(b)
	if a[1] != 5 || a[2] != 7 || a[3] != 1 {
		t.Errorf("merged = %v", a)
	}
	c := a.Clone()
	c[1] = 99
	if a[1] != 5 {
		t.Error("clone aliases")
	}
}

func TestDependencyClosure(t *testing.T) {
	d := NewDependencyTracker()
	// Txn A wrote P1@5 and P2@9 together.
	d.RecordCommit(VersionVector{1: 5, 2: 9})
	// Txn B wrote P2@10 and P3@2 together.
	d.RecordCommit(VersionVector{2: 10, 3: 2})

	// Reader of P1@5 tracking P2 must raise P2 to 9.
	snap := d.Close(VersionVector{1: 5, 2: 3})
	if snap[2] != 9 {
		t.Errorf("snap[2] = %d, want 9", snap[2])
	}
	// Transitive: P1@5 -> P2@9; if also tracking P3 and P2 >= 10 applies...
	snap = d.Close(VersionVector{1: 5, 2: 10, 3: 0})
	if snap[3] != 2 {
		t.Errorf("snap[3] = %d, want 2", snap[3])
	}
	// Versions above the snapshot's chosen version do not force raises.
	snap = d.Close(VersionVector{1: 4, 2: 0})
	if snap[2] != 0 {
		t.Errorf("snap[2] = %d, want 0 (dep at v5 > 4)", snap[2])
	}
}

// TestDependencyForget pins Forget's safe contract: folding never makes a
// Close return less than the un-forgotten tracker would (no torn snapshot),
// and a snapshot at or above the watermark closes to the identical vector.
func TestDependencyForget(t *testing.T) {
	record := func(d *DependencyTracker) {
		d.RecordCommit(VersionVector{1: 3, 2: 4})
		d.RecordCommit(VersionVector{1: 5, 2: 9})
		d.RecordCommit(VersionVector{1: 8, 3: 2})
	}
	whole, folded := NewDependencyTracker(), NewDependencyTracker()
	record(whole)
	record(folded)
	w := VersionVector{1: 5, 2: 9}
	if n := folded.Forget(w); n != 2 {
		t.Errorf("Forget folded %d entries, want 2 (1@3 and 2@4)", n)
	}
	if got := folded.Entries(); got != whole.Entries()-2 {
		t.Errorf("entries after fold = %d, want %d", got, whole.Entries()-2)
	}
	for _, start := range []VersionVector{
		{1: 5, 2: 0},        // the forgotten dependency must still apply
		{1: 3, 2: 0},        // below the base: moved forward, not torn
		{1: 4, 2: 2, 3: 0},  // below the base on both
		{1: 5, 2: 9, 3: 0},  // at the watermark
		{1: 8, 2: 10, 3: 0}, // above it
		{1: 2, 2: 3},        // below every entry
	} {
		atOrAbove := true
		for pid, ver := range start {
			if ver < w[pid] {
				atOrAbove = false
			}
		}
		want := whole.Close(start.Clone())
		got := folded.Close(start.Clone())
		for pid, ver := range want {
			if got[pid] < ver || (atOrAbove && got[pid] != ver) {
				t.Errorf("Close(%v) after Forget = %v, un-forgotten %v", start, got, want)
				break
			}
		}
	}
}

func TestSingleCommitNoDeps(t *testing.T) {
	d := NewDependencyTracker()
	d.RecordCommit(VersionVector{1: 5})
	snap := d.Close(VersionVector{1: 5, 2: 0})
	if snap[2] != 0 {
		t.Errorf("single-partition commit created deps: %v", snap)
	}
}

func TestSessionWatermark(t *testing.T) {
	s := NewSession()
	s.Observe(VersionVector{1: 3})
	s.Observe(VersionVector{1: 2, 2: 4, 3: 7}) // 1 must not regress
	// Raise lifts tracked partitions only, and never lowers one.
	snap := VersionVector{1: 0, 2: 9}
	s.Raise(snap)
	if len(snap) != 2 || snap[1] != 3 || snap[2] != 9 {
		t.Errorf("raised = %v, want {1:3 2:9}", snap)
	}
}

type fakeParticipant struct {
	prepareErr error
	prepared   int
	committed  int
	aborted    int
}

func (f *fakeParticipant) Prepare(uint64) error { f.prepared++; return f.prepareErr }
func (f *fakeParticipant) Commit(uint64) error  { f.committed++; return nil }
func (f *fakeParticipant) Abort(uint64) error   { f.aborted++; return nil }

func TestTwoPCCommit(t *testing.T) {
	a, b := &fakeParticipant{}, &fakeParticipant{}
	c := &Coordinator{}
	if err := c.Commit(1, []Participant{a, b}); err != nil {
		t.Fatal(err)
	}
	if a.prepared != 1 || b.prepared != 1 || a.committed != 1 || b.committed != 1 {
		t.Errorf("states: %+v %+v", a, b)
	}
}

func TestTwoPCAbortOnNoVote(t *testing.T) {
	a := &fakeParticipant{}
	b := &fakeParticipant{prepareErr: errors.New("conflict")}
	c := &Coordinator{}
	err := c.Commit(2, []Participant{a, b})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	if a.committed != 0 || b.committed != 0 {
		t.Error("committed despite abort")
	}
	if a.aborted != 1 || b.aborted != 1 {
		t.Errorf("aborts: %d %d", a.aborted, b.aborted)
	}
}

func TestTwoPCOnePhaseFastPath(t *testing.T) {
	a := &fakeParticipant{}
	c := &Coordinator{OnePhase: true}
	if err := c.Commit(3, []Participant{a}); err != nil {
		t.Fatal(err)
	}
	if a.prepared != 0 || a.committed != 1 {
		t.Errorf("one-phase: %+v", a)
	}
}

// localParticipant is a fakeParticipant at the coordinator's own site.
type localParticipant struct{ fakeParticipant }

func (*localParticipant) Remote() bool { return false }

// TestFanoutSpawnsOnlyForOverlappingRemotes: local calls and a lone remote
// call run on the caller — no goroutine — while two remote calls overlap
// (each waits for the other to start), and the lowest-indexed failure is
// the one reported.
func TestFanoutSpawnsOnlyForOverlappingRemotes(t *testing.T) {
	base := runtime.NumGoroutine()
	var during []int // appended on the caller only: -race flags any other goroutine
	if i, err := Fanout(3, func(i int) bool { return i == 1 }, func(int) error {
		during = append(during, runtime.NumGoroutine())
		return nil
	}); i != -1 || err != nil {
		t.Fatalf("Fanout = %d, %v", i, err)
	}
	for _, n := range during {
		if n > base {
			t.Errorf("%d goroutines during a call, %d before: a call left the caller", n, base)
		}
	}
	var started sync.WaitGroup
	started.Add(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		i, err := Fanout(3, func(i int) bool { return i > 0 }, func(i int) error {
			if i == 0 {
				return errors.New("local")
			}
			started.Done()
			started.Wait()
			return errors.New("remote")
		})
		if i != 0 || err == nil || err.Error() != "local" {
			t.Errorf("Fanout = %d, %v; want the failure at 0", i, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("two remote calls did not overlap")
	}
}

// TestTwoPCLocalParticipantInline: a participant at the coordinator's site
// takes part in both phases like any other.
func TestTwoPCLocalParticipantInline(t *testing.T) {
	a, b := &localParticipant{}, &fakeParticipant{}
	if err := (&Coordinator{OnePhase: true}).Commit(5, []Participant{a, b}); err != nil {
		t.Fatal(err)
	}
	if a.prepared != 1 || a.committed != 1 || b.prepared != 1 || b.committed != 1 {
		t.Errorf("states: %+v %+v", a.fakeParticipant, *b)
	}
}

func TestTwoPCEmpty(t *testing.T) {
	c := &Coordinator{}
	if err := c.Commit(4, nil); err != nil {
		t.Fatal(err)
	}
}
