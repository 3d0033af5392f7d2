package site

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/cost"
	"proteus/internal/faults"
	"proteus/internal/partition"
	"proteus/internal/redolog"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

func newSite(t *testing.T) *Site {
	t.Helper()
	s := New(0, Config{}, redolog.NewBroker(), nil, -1)
	t.Cleanup(s.Close)
	return s
}

func newPart(s *Site, id partition.ID) *partition.Partition {
	b := partition.Bounds{RowStart: 0, RowEnd: 100, ColStart: 0, ColEnd: 2}
	kinds := []types.Kind{types.KindInt64, types.KindString}
	return partition.New(id, b, kinds, storage.DefaultRowLayout(), s.Factory)
}

func TestPartitionRegistry(t *testing.T) {
	s := newSite(t)
	p := newPart(s, 7)
	s.AddPartition(p, true)
	got, ok := s.Partition(7)
	if !ok || got != p {
		t.Fatal("lookup failed")
	}
	if !s.IsMaster(7) {
		t.Error("master flag lost")
	}
	s.SetMaster(7, false)
	if s.IsMaster(7) {
		t.Error("SetMaster failed")
	}
	if len(s.Partitions()) != 1 {
		t.Error("Partitions() wrong")
	}
	s.RemovePartition(7)
	if _, ok := s.Partition(7); ok {
		t.Error("remove failed")
	}
	if _, err := s.MustPartition(7); err == nil {
		t.Error("MustPartition on missing succeeded")
	}
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestPoolsExecuteAndIsolate(t *testing.T) {
	s := New(0, Config{ScanWorkers: 3}, redolog.NewBroker(), nil, -1)
	t.Cleanup(s.Close)
	// Bind no thread: the box may have fewer CPUs than scan slots.
	s.scan.ownCPU.Store(false)
	classes := []struct {
		name string
		size int
		run  func(func()) error
	}{
		{"oltp", oltpSlots, s.RunOLTP},
		{"olap", olapSlots, s.RunOLAP},
		{"scan", 3, s.RunScan},
	}
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // runs before s.Close, which waits for the tasks
	var mu sync.Mutex
	var running, most [3]int
	load := func(i int) int {
		mu.Lock()
		defer mu.Unlock()
		return running[i]
	}
	var wg sync.WaitGroup
	for i, c := range classes {
		for k := 0; k < 3*c.size; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := c.run(func() {
					mu.Lock()
					running[i]++
					most[i] = max(most[i], running[i])
					mu.Unlock()
					<-gate
					mu.Lock()
					running[i]--
					mu.Unlock()
				})
				if err != nil {
					t.Error(err)
				}
			}()
		}
	}
	// Every class fills its slots while the others' are held: the classes
	// do not share them.
	for i, c := range classes {
		waitFor(t, c.name+" slots to fill", func() bool { return load(i) == c.size })
	}
	if cpu := s.CPU(); cpu != 1 {
		t.Errorf("cpu = %f with every OLTP and OLAP slot taken", cpu)
	}
	// Give the queued submitters time to overrun a slot count, if they can.
	time.Sleep(10 * time.Millisecond)
	release()
	wg.Wait()
	for i, c := range classes {
		if most[i] != c.size {
			t.Errorf("%s ran at most %d tasks at once with %d slots", c.name, most[i], c.size)
		}
	}
	if cpu := s.CPU(); cpu != 0 {
		t.Errorf("cpu = %f with every slot free", cpu)
	}
}

func TestOLTPInFlightCountsQueuedTransactionsOnly(t *testing.T) {
	s := newSite(t)
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	var wg sync.WaitGroup
	// Replication applies take every OLTP slot without counting.
	for i := 0; i < oltpSlots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Repl.Exec(func() { <-gate })
		}()
	}
	waitFor(t, "applies to take the OLTP slots", func() bool { return len(s.oltp.sem) == oltpSlots })
	if n := s.OLTPInFlight(); n != 0 {
		t.Fatalf("in flight = %d with only applies running", n)
	}
	// A transaction queued behind them counts before it has a slot.
	ran := make(chan struct{})
	go func() {
		if err := s.RunOLTP(func() { close(ran) }); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, "the queued transaction to count", func() bool { return s.OLTPInFlight() == 1 })
	select {
	case <-ran:
		t.Fatal("transaction ran with every slot taken")
	default:
	}
	release()
	wg.Wait()
	<-ran
	waitFor(t, "the transaction to uncount", func() bool { return s.OLTPInFlight() == 0 })
}

func TestSiteRunAllocatesNothing(t *testing.T) {
	s := newSite(t)
	n := 0
	f := func() { n++ }
	for _, c := range []struct {
		name string
		run  func(func()) error
	}{{"RunOLTP", s.RunOLTP}, {"RunOLAP", s.RunOLAP}, {"RunScan", s.RunScan}} {
		if a := testing.AllocsPerRun(100, func() { _ = c.run(f) }); a != 0 {
			t.Errorf("%s allocates %.1f per call", c.name, a)
		}
	}
	if n == 0 {
		t.Error("no task ran")
	}
}

func TestCloseWaitsForRunningTask(t *testing.T) {
	s := New(0, Config{}, redolog.NewBroker(), nil, -1)
	gate := make(chan struct{})
	started := make(chan struct{})
	var finished atomic.Bool
	go func() {
		_ = s.RunOLTP(func() {
			close(started)
			<-gate
			finished.Store(true)
		})
	}()
	<-started
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a task was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	<-closed
	if !finished.Load() {
		t.Error("Close returned before the task did")
	}
	ran := false
	if err := s.RunOLTP(func() { ran = true }); !errors.Is(err, faults.ErrSiteDown) {
		t.Errorf("RunOLTP after Close: err = %v", err)
	}
	if ran {
		t.Error("a task ran after Close")
	}
	s.Close() // a second Close returns at once
}

func TestObservationBuffer(t *testing.T) {
	s := newSite(t)
	s.Observe(cost.Observation{Op: cost.OpScan, Features: cost.Features{1}, Latency: time.Microsecond})
	obs := s.DrainObservations()
	if len(obs) != 1 {
		t.Fatalf("drained %d observations", len(obs))
	}
	if len(s.DrainObservations()) != 0 {
		t.Error("drain not clearing")
	}
}

func TestMemUsageAndCapacity(t *testing.T) {
	s := newSite(t)
	p := newPart(s, 1)
	_ = p.Load([]schema.Row{{ID: 1, Vals: []types.Value{types.NewInt64(1), types.NewString("abcdefghijkl")}}}, 1)
	s.AddPartition(p, true)
	if s.MemUsage() <= 0 {
		t.Error("memory usage not counted")
	}
	s.SetMemCapacity(12345)
	if s.MemCapacity() != 12345 {
		t.Error("capacity set/get failed")
	}
	// Disk-tier copies do not count toward memory.
	if err := p.ChangeLayout(storage.Layout{Format: storage.RowFormat, Tier: storage.DiskTier, SortBy: storage.NoSort}, s.Factory, storage.Latest); err != nil {
		t.Fatal(err)
	}
	if s.MemUsage() != 0 {
		t.Errorf("disk copy counted as memory: %d", s.MemUsage())
	}
	if s.DiskUsage() <= 0 {
		t.Error("disk usage not counted")
	}
}

func TestMaintainObservesMergeCost(t *testing.T) {
	s := newSite(t)
	b := partition.Bounds{RowStart: 0, RowEnd: 100, ColStart: 0, ColEnd: 2}
	kinds := []types.Kind{types.KindInt64, types.KindString}
	p := partition.New(2, b, kinds, storage.DefaultColumnLayout(), s.Factory)
	var rows []schema.Row
	for i := int64(0); i < 10; i++ {
		rows = append(rows, schema.Row{ID: schema.RowID(i), Vals: []types.Value{types.NewInt64(i), types.NewString("v")}})
	}
	_ = p.Load(rows, 1)
	s.AddPartition(p, true)
	for i := int64(0); i < 5; i++ {
		_ = p.Update(schema.RowID(i), []schema.ColID{0}, []types.Value{types.NewInt64(-i)}, 2)
	}
	s.Maintain(3)
	obs := s.DrainObservations()
	found := false
	for _, o := range obs {
		if o.Op == cost.OpWrite && o.Layout.Format == storage.ColumnFormat {
			found = true
		}
	}
	if !found {
		t.Error("merge cost not attributed to column write model")
	}
	if p.Stats().DeltaRows != 0 {
		t.Error("delta not merged")
	}
}
