package txn

import (
	"sync"

	"proteus/internal/partition"
)

// VersionVector maps partitions to versions. As a snapshot it gives, per
// partition, the newest version a read may observe; as a watermark it gives
// the oldest version a read must observe.
type VersionVector map[partition.ID]uint64

// Clone deep-copies the vector.
func (v VersionVector) Clone() VersionVector {
	out := make(VersionVector, len(v))
	for k, ver := range v {
		out[k] = ver
	}
	return out
}

// MergeMax raises each entry to at least the other vector's version.
func (v VersionVector) MergeMax(o VersionVector) {
	for k, ver := range o {
		if v[k] < ver {
			v[k] = ver
		}
	}
}

// DependencyTracker records, for each committed partition version, the
// versions of partitions co-written by the same transaction (§4.2: "the
// dependencies among partitions and their versions"). Snapshot construction
// closes over these dependencies so a transaction that observes P@v also
// observes every co-committed write, yielding a consistent SI snapshot
// without a global timestamp.
//
// Dependencies are monotone in the version — observing P@v means observing
// every commit to P at or below v — so each partition keeps one
// version-sorted run whose entries hold the cumulative maximum dependency
// vector up to their version, and a lookup is one binary search.
type DependencyTracker struct {
	mu   sync.RWMutex
	runs map[partition.ID]*depRun
}

// depRun is one partition's run: entries sorted by strictly increasing
// version, each carrying the pointwise maximum of the dependencies of every
// recorded commit at or below it. folded marks that Forget made the first
// entry a base standing in for everything below it.
type depRun struct {
	entries []depEntry
	folded  bool
}

type depEntry struct {
	ver  uint64
	deps []pidVer // sorted by pid; immutable once stored (runs share arenas)
}

type pidVer struct {
	pid partition.ID
	ver uint64
}

// NewDependencyTracker creates an empty tracker.
func NewDependencyTracker() *DependencyTracker {
	return &DependencyTracker{runs: make(map[partition.ID]*depRun)}
}

// upper returns how many entries sit at or below ver.
func (r *depRun) upper(ver uint64) int {
	lo, hi := 0, len(r.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.entries[mid].ver <= ver {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lookup returns the cumulative dependencies of observing the partition at
// ver: those of the last entry at or below it. Below a folded base the base
// answers — an over-approximation, which can only move a snapshot forward
// to a later consistent one, never tear it.
func (r *depRun) lookup(ver uint64) []pidVer {
	if i := r.upper(ver); i > 0 {
		return r.entries[i-1].deps
	}
	if r.folded {
		return r.entries[0].deps
	}
	return nil
}

// mergeDeps appends to dst the pointwise maximum of two pid-sorted vectors,
// leaving out skip from add.
func mergeDeps(dst, base, add []pidVer, skip partition.ID) []pidVer {
	i, j := 0, 0
	for i < len(base) || j < len(add) {
		switch {
		case j < len(add) && add[j].pid == skip:
			j++
		case j == len(add) || (i < len(base) && base[i].pid < add[j].pid):
			dst = append(dst, base[i])
			i++
		case i == len(base) || add[j].pid < base[i].pid:
			dst = append(dst, add[j])
			j++
		default:
			m := base[i]
			if add[j].ver > m.ver {
				m.ver = add[j].ver
			}
			dst = append(dst, m)
			i, j = i+1, j+1
		}
	}
	return dst
}

// RecordCommit notes that one transaction installed the given partition
// versions together. Single-partition commits carry no dependencies. The
// engine records at the commit point, under the partition locks the
// versions were reserved under, so each run sees strictly increasing
// versions and the record is a plain append; a version at or below a run's
// last is still accepted (sorted insert, later entries raised).
func (d *DependencyTracker) RecordCommit(installed VersionVector) {
	if len(installed) < 2 {
		return
	}
	var buf [16]pidVer
	all := buf[:0]
	for pid, ver := range installed {
		i := len(all)
		all = append(all, pidVer{})
		for ; i > 0 && all[i-1].pid > pid; i-- {
			all[i] = all[i-1]
		}
		all[i] = pidVer{pid, ver}
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	// One arena holds every new entry's vector: an entry's size is bounded
	// by its predecessor's plus the co-written partitions.
	size := 0
	for _, pv := range all {
		r := d.runs[pv.pid]
		if r == nil {
			r = &depRun{}
			d.runs[pv.pid] = r
		}
		if n := len(r.entries); n > 0 {
			size += len(r.entries[n-1].deps)
		}
		size += len(all) - 1
	}
	arena := make([]pidVer, 0, size)
	for _, pv := range all {
		r := d.runs[pv.pid]
		n := len(r.entries)
		if n > 0 && pv.ver <= r.entries[n-1].ver {
			r.insert(pv, all)
			continue
		}
		var prev []pidVer
		if n > 0 {
			prev = r.entries[n-1].deps
		}
		start := len(arena)
		arena = mergeDeps(arena, prev, all, pv.pid)
		r.entries = append(r.entries, depEntry{ver: pv.ver, deps: arena[start:len(arena):len(arena)]})
	}
}

// insert records a commit whose version is not above the run's last: the
// entry lands at its sorted position (or merges into an equal version, or
// into the base when below it) and every later entry is raised, keeping the
// run cumulative.
func (r *depRun) insert(pv pidVer, all []pidVer) {
	i := r.upper(pv.ver)
	switch {
	case i > 0 && r.entries[i-1].ver == pv.ver:
		i--
	case i == 0 && r.folded:
		// Below the base: the base and its successors answer for it.
	default:
		var prev []pidVer
		if i > 0 {
			prev = r.entries[i-1].deps
		}
		r.entries = append(r.entries, depEntry{})
		copy(r.entries[i+1:], r.entries[i:])
		r.entries[i] = depEntry{ver: pv.ver, deps: prev}
	}
	for ; i < len(r.entries); i++ {
		r.entries[i].deps = mergeDeps(nil, r.entries[i].deps, all, pv.pid)
	}
}

// Close raises the snapshot to include every dependency of the versions it
// already contains, iterating to a fixpoint. Only dependencies at or below
// the snapshot's chosen version for a partition apply (observing P@v means
// observing all commits to P up to v, each with its own dependencies). Only
// partitions the snapshot tracks are raised. Each round costs one binary
// search per tracked partition, whatever the history's length.
func (d *DependencyTracker) Close(snap VersionVector) VersionVector {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.runs) == 0 {
		return snap
	}
	for changed := true; changed; {
		changed = false
		for pid, ver := range snap {
			r := d.runs[pid]
			if r == nil {
				continue
			}
			for _, dep := range r.lookup(ver) {
				if cur, tracked := snap[dep.pid]; tracked && cur < dep.ver {
					snap[dep.pid] = dep.ver
					changed = true
				}
			}
		}
	}
	return snap
}

// Forget folds, per partition, every entry at or below the watermark into
// one base entry — the last of them, whose cumulative vector already covers
// the rest — and reports how many entries that released. Nothing is
// dropped: a Close never returns a vector smaller than it would have
// without the Forget, and a snapshot at or above the watermark closes to
// the identical vector. One starting below it may be moved forward to a
// later consistent snapshot.
func (d *DependencyTracker) Forget(watermark VersionVector) (folded int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for pid, ver := range watermark {
		r := d.runs[pid]
		if r == nil {
			continue
		}
		i := r.upper(ver)
		if i < 2 {
			continue
		}
		r.folded = true
		// Copy down rather than re-slice, so the released entries' vectors
		// are not pinned by the backing array.
		n := copy(r.entries, r.entries[i-1:])
		for j := n; j < len(r.entries); j++ {
			r.entries[j] = depEntry{}
		}
		r.entries = r.entries[:n]
		folded += i - 1
	}
	return folded
}

// Drop forgets a retired partition's run. A split or merge retires the
// partition for good, so no snapshot tracks it again and nothing Forget
// could fold would ever release the run.
func (d *DependencyTracker) Drop(pid partition.ID) {
	d.mu.Lock()
	delete(d.runs, pid)
	d.mu.Unlock()
}

// Entries reports how many entries the tracker retains over all partitions.
func (d *DependencyTracker) Entries() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, r := range d.runs {
		n += len(r.entries)
	}
	return n
}

// Session carries one client's watermark for strong session snapshot
// isolation (§4.2): every transaction in the session must observe at least
// the versions its previous transactions read or wrote, preventing
// transaction inversion.
type Session struct {
	mu        sync.Mutex
	watermark VersionVector
}

// NewSession creates a fresh session.
func NewSession() *Session {
	return &Session{watermark: make(VersionVector)}
}

// Raise lifts the caller's vector, in place, to at least the session's
// required version of every partition the vector already tracks.
func (s *Session) Raise(snap VersionVector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for pid, cur := range snap {
		if v := s.watermark[pid]; v > cur {
			snap[pid] = v
		}
	}
}

// Observe raises the watermark with versions the session just read or wrote.
func (s *Session) Observe(v VersionVector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watermark.MergeMax(v)
}

// ObserveOf raises the watermark with v's versions of pids only.
func (s *Session) ObserveOf(v VersionVector, pids []partition.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pid := range pids {
		if ver := v[pid]; s.watermark[pid] < ver {
			s.watermark[pid] = ver
		}
	}
}
