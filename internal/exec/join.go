package exec

import (
	"time"

	"proteus/internal/cost"
	"proteus/internal/types"
)

// NULL-key semantics: as in SQL, and as CmpEq.Eval filters, a NULL key
// matches nothing — not even another NULL. joinKey hashes NULLs into the
// table like any other value; keysEqual rejects them.

// joinKey hashes a tuple's key columns.
func joinKey(t []types.Value, keys []int) uint64 {
	h := uint64(1469598103934665603)
	for _, k := range keys {
		h = h*1099511628211 ^ t[k].Hash()
	}
	return h
}

// keysEqual matches keys via types.Equal, except that a NULL key equals
// nothing — consistent with CmpOp.Eval filters.
func keysEqual(a, b []types.Value, aKeys, bKeys []int) bool {
	for i := range aKeys {
		x, y := a[aKeys[i]], b[bKeys[i]]
		if x.IsNull() || y.IsNull() || !types.Equal(x, y) {
			return false
		}
	}
	return true
}

func joinCols(l, r Rel) []string {
	cols := make([]string, 0, len(l.Cols)+len(r.Cols))
	cols = append(cols, l.Cols...)
	return append(cols, r.Cols...)
}

// tupleArena hands out concatenated output tuples from chunked slabs, so a
// join emitting k rows costs O(k/chunk) allocations instead of one per row.
// Returned tuples are full-slice-capped, so they never alias later ones.
type tupleArena struct {
	buf []types.Value
}

const tupleArenaChunk = 8192

func (ar *tupleArena) concat(a, b []types.Value) []types.Value {
	n := len(a) + len(b)
	if cap(ar.buf)-len(ar.buf) < n {
		c := tupleArenaChunk
		if n > c {
			c = n
		}
		ar.buf = make([]types.Value, 0, c)
	}
	start := len(ar.buf)
	ar.buf = append(ar.buf, a...)
	ar.buf = append(ar.buf, b...)
	return ar.buf[start:len(ar.buf):len(ar.buf)]
}

// rowHashTable is a chained-index hash table over build tuples: head/next
// arrays preallocated from the build cardinality replace the former
// map[uint64][]int and its per-bucket slice growth. Chains are threaded in
// reverse so iteration ascends in build index.
type rowHashTable struct {
	head   []int32
	next   []int32
	hashes []uint64
	mask   uint64
}

func buildRowHashTable(tuples [][]types.Value, keys []int) rowHashTable {
	n := len(tuples)
	nb := uint64(2)
	for nb < uint64(n)*2 {
		nb <<= 1
	}
	t := rowHashTable{
		head:   make([]int32, nb),
		next:   make([]int32, n),
		hashes: make([]uint64, n),
		mask:   nb - 1,
	}
	for i := range t.head {
		t.head[i] = -1
	}
	for i, tup := range tuples {
		t.hashes[i] = joinKey(tup, keys)
	}
	for i := n - 1; i >= 0; i-- {
		slot := t.hashes[i] & t.mask
		t.next[i] = t.head[slot]
		t.head[slot] = int32(i)
	}
	return t
}

// each calls fn with every build index whose hash matches h, ascending.
func (t *rowHashTable) each(h uint64, fn func(bi int)) {
	for bi := t.head[h&t.mask]; bi >= 0; bi = t.next[bi] {
		if t.hashes[bi] == h {
			fn(int(bi))
		}
	}
}

func joinObs(variant cost.Variant, l, r, out Rel, d time.Duration) cost.Observation {
	sel := 1.0
	// The cardinality product overflows int for relations past ~3B rows
	// each; compute in float64.
	if denom := float64(l.NumRows()) * float64(r.NumRows()); denom > 0 {
		sel = float64(out.NumRows()) / denom
	}
	return cost.Observation{
		Op:       cost.OpJoin,
		Variant:  variant,
		Features: cost.JoinFeatures(l.NumRows(), r.NumRows(), out.NumRows(), l.RowBytes()+r.RowBytes(), sel),
		Latency:  d,
	}
}

// HashJoin computes the inner equi-join of l and r on the given key
// positions, building the hash table on the smaller input. Output rows are
// left-major regardless of which side builds — ascending left index, then
// ascending right index — the order of a nested loop over l then r, so
// callers (and the differential tests) can compare results row for row.
func HashJoin(l, r Rel, lKeys, rKeys []int) (Rel, cost.Observation) {
	start := time.Now()
	build, probe := r, l
	bKeys, pKeys := rKeys, lKeys
	swapped := false
	if l.NumRows() < r.NumRows() {
		build, probe = l, r
		bKeys, pKeys = lKeys, rKeys
		swapped = true
	}
	ht := buildRowHashTable(build.Tuples, bKeys)
	out := Rel{Cols: joinCols(l, r)}
	var arena tupleArena
	if swapped {
		// Build side is l, probe is r: probing emits right-major order, so
		// collect each l row's matching r indexes (ascending, since the
		// probe walks r in order) and emit grouped by l afterwards.
		matches := make([][]int, build.NumRows())
		for pi, pt := range probe.Tuples {
			ht.each(joinKey(pt, pKeys), func(bi int) {
				if keysEqual(pt, build.Tuples[bi], pKeys, bKeys) {
					matches[bi] = append(matches[bi], pi)
				}
			})
		}
		for li, ps := range matches {
			for _, pi := range ps {
				out.Tuples = append(out.Tuples, arena.concat(build.Tuples[li], probe.Tuples[pi]))
			}
		}
		return out, joinObs(cost.JoinHash, l, r, out, time.Since(start))
	}
	for _, pt := range probe.Tuples {
		pk := joinKey(pt, pKeys)
		ht.each(pk, func(bi int) {
			bt := build.Tuples[bi]
			if keysEqual(pt, bt, pKeys, bKeys) {
				out.Tuples = append(out.Tuples, arena.concat(pt, bt))
			}
		})
	}
	return out, joinObs(cost.JoinHash, l, r, out, time.Since(start))
}
