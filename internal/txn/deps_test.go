package txn

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"proteus/internal/partition"
)

// refTracker is the tracker this package shipped before the cumulative
// runs: one dependency vector per committed version, and a Close that walks
// every version to a fixpoint. It never forgets. It survives only here, as
// the oracle the differential test compares against.
type refTracker struct {
	deps map[partition.ID]map[uint64]VersionVector
}

func newRefTracker() *refTracker {
	return &refTracker{deps: make(map[partition.ID]map[uint64]VersionVector)}
}

func (d *refTracker) RecordCommit(installed VersionVector) {
	if len(installed) < 2 {
		return
	}
	for pid, ver := range installed {
		byVer, ok := d.deps[pid]
		if !ok {
			byVer = make(map[uint64]VersionVector)
			d.deps[pid] = byVer
		}
		rest := make(VersionVector, len(installed)-1)
		for q, w := range installed {
			if q != pid {
				rest[q] = w
			}
		}
		byVer[ver] = rest
	}
}

func (d *refTracker) Close(snap VersionVector) VersionVector {
	for changed := true; changed; {
		changed = false
		for pid, ver := range snap {
			for v, rest := range d.deps[pid] {
				if v > ver {
					continue
				}
				for q, w := range rest {
					if cur, tracked := snap[q]; tracked && cur < w {
						snap[q] = w
						changed = true
					}
				}
			}
		}
	}
	return snap
}

// runDepsHistory drives one seeded random history through the oracle, a
// tracker that never forgets and a tracker folded at random watermarks, and
// checks every probed snapshot. lateShare > 0 records that share of commits
// some steps after later versions of the same partitions (the order two
// clients' post-flush waiters used to produce).
func runDepsHistory(t *testing.T, seed int64, lateShare float64) {
	rng := rand.New(rand.NewSource(seed))
	nParts := 2 + rng.Intn(63)
	commits := 30 + rng.Intn(170)
	ref, plain, folded := newRefTracker(), NewDependencyTracker(), NewDependencyTracker()
	last := make([]uint64, nParts)  // highest version reserved per partition
	floor := make([]uint64, nParts) // highest watermark forgotten per partition
	type late struct {
		at  int
		vec VersionVector
	}
	var pending []late
	record := func(vec VersionVector) {
		ref.RecordCommit(vec.Clone())
		plain.RecordCommit(vec)
		folded.RecordCommit(vec)
	}

	probe := func(step int) {
		snap := make(VersionVector)
		above := true
		for _, p := range rng.Perm(nParts)[:1+rng.Intn(min(nParts, 10))] {
			v := uint64(rng.Int63n(int64(last[p]) + 3))
			snap[partition.ID(p)] = v
			if v < floor[p] {
				above = false
			}
		}
		want := ref.Close(snap.Clone())
		if got := plain.Close(snap.Clone()); !maps.Equal(got, want) {
			t.Fatalf("seed %d step %d: Close(%v) = %v, oracle %v", seed, step, snap, got, want)
		}
		got := folded.Close(snap.Clone())
		for pid, ver := range want {
			if got[pid] < ver {
				t.Fatalf("seed %d step %d: folded Close(%v) = %v below oracle %v", seed, step, snap, got, want)
			}
		}
		if above && !maps.Equal(got, want) {
			t.Fatalf("seed %d step %d: folded Close(%v) = %v at/above the watermark, oracle %v", seed, step, snap, got, want)
		}
		// Over-closure moves a snapshot forward, never tears it: the result
		// is itself closed under the exact dependencies.
		if again := ref.Close(got.Clone()); !maps.Equal(again, got) {
			t.Fatalf("seed %d step %d: folded Close(%v) = %v is not closed (oracle raises it to %v)", seed, step, snap, got, again)
		}
	}

	for step := 0; step < commits; step++ {
		vec := make(VersionVector)
		for _, p := range rng.Perm(nParts)[:1+rng.Intn(min(nParts, 8))] {
			last[p] += 1 + uint64(rng.Intn(4)) // gaps: versions lost to aborts
			vec[partition.ID(p)] = last[p]
		}
		if rng.Float64() < lateShare {
			pending = append(pending, late{at: step + 1 + rng.Intn(6), vec: vec})
		} else {
			record(vec)
		}
		kept := pending[:0]
		for _, l := range pending {
			if l.at <= step {
				record(l.vec)
			} else {
				kept = append(kept, l)
			}
		}
		pending = kept

		if rng.Intn(12) == 0 {
			w := make(VersionVector)
			for _, p := range rng.Perm(nParts)[:1+rng.Intn(nParts)] {
				w[partition.ID(p)] = floor[p] + uint64(rng.Int63n(int64(last[p]-floor[p])+1))
				floor[p] = w[partition.ID(p)]
			}
			before := folded.Entries()
			n := folded.Forget(w)
			if after := folded.Entries(); n < 0 || before-after != n {
				t.Fatalf("seed %d step %d: Forget reported %d folded, entries %d -> %d", seed, step, n, before, after)
			}
		}
		for i := 0; i < 3; i++ {
			probe(step)
		}
	}
}

// TestDepsDifferential checks the cumulative runs entry for entry against
// the old fixpoint over seeded random histories, with and without Forget.
func TestDepsDifferential(t *testing.T) {
	for seed := int64(1); seed <= 80; seed++ {
		runDepsHistory(t, seed, 0)
	}
}

// TestDepsDifferentialLateRecords repeats it with commits recorded out of
// version order, which RecordCommit still accepts.
func TestDepsDifferentialLateRecords(t *testing.T) {
	for seed := int64(1001); seed <= 1050; seed++ {
		runDepsHistory(t, seed, 0.25)
	}
}

// TestDepsFoldBoundsEntries pins the point of Forget: a tracker folded at
// the current versions holds one entry per partition however long the
// history.
func TestDepsFoldBoundsEntries(t *testing.T) {
	const parts = 8
	d := NewDependencyTracker()
	rng := rand.New(rand.NewSource(1))
	last := make(VersionVector, parts)
	for i := 0; i < 20000; i++ {
		vec := make(VersionVector)
		for _, p := range rng.Perm(parts)[:2+rng.Intn(5)] {
			last[partition.ID(p)]++
			vec[partition.ID(p)] = last[partition.ID(p)]
		}
		d.RecordCommit(vec)
		if i%100 == 99 {
			d.Forget(last)
			if n := d.Entries(); n > parts {
				t.Fatalf("after %d commits and a fold at the current versions: %d entries, want <= %d", i+1, n, parts)
			}
		}
	}
}

var depsSink VersionVector

// BenchmarkDepsClose times snapshotFor's Close on an oltp-rmw-shaped
// history (8 partitions, 6 written per commit) that is never folded: ns/op
// must stay flat from 1e2 to 1e5 recorded commits, at 0 allocs/op. The
// snapshot starts ten commits behind the newest versions, so every Close
// does raise.
func BenchmarkDepsClose(b *testing.B) {
	const parts, perCommit, behind = 8, 6, 10
	for _, commits := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("commits=%d", commits), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			d := NewDependencyTracker()
			last := make(VersionVector, parts)
			var start VersionVector
			for i := 0; i < commits; i++ {
				if i == commits-behind {
					start = last.Clone()
				}
				vec := make(VersionVector, perCommit)
				for _, p := range rng.Perm(parts)[:perCommit] {
					last[partition.ID(p)]++
					vec[partition.ID(p)] = last[partition.ID(p)]
				}
				d.RecordCommit(vec)
			}
			snap := make(VersionVector, perCommit)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p := 0; p < perCommit; p++ {
					snap[partition.ID(p)] = start[partition.ID(p)]
				}
				depsSink = d.Close(snap)
			}
		})
	}
}
