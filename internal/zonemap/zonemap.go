// Package zonemap implements per-partition zone maps (§4.1.3 of the paper):
// the minimum and maximum value of every column stored in a partition,
// maintained in memory, used to skip partitions whose value ranges cannot
// satisfy a query predicate and to estimate predicate selectivity (§5.1).
package zonemap

import (
	"math"
	"sync"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// ZoneMap tracks min/max per column, and per column whether a value
// outside that order was ever observed: a NULL, a NaN, or a kind other than
// the column's. The zero value is empty; use New. Updates widen the
// ranges; deletions do not narrow them (ranges are conservative until
// Rebuild).
type ZoneMap struct {
	mu    sync.RWMutex
	kinds []types.Kind // the columns' kinds (read-only)
	mins  []types.Value
	maxs  []types.Value
	flags []uint8 // per column: sawNull | sawNaN | sawKind
	n     int     // observed rows

	// Populated row-id span, used to clip scan morsels to the id range
	// that actually holds rows (partition bounds are often far wider).
	idLo, idHi schema.RowID
	hasID      bool
}

// Column flags. A NaN compares equal to every number under types.Compare,
// so it lies in no range: it is kept out of min/max, and a column that
// held one is never pruned on. A NULL passes no condition, so it cannot
// change a pruning verdict, but it stops a condition from holding for
// every row. So does a value of another kind than the column's: a store
// may hold it converted to the column's kind (a float 2.5 in an int column
// reads back as 2), outside the range the map recorded.
const (
	sawNull uint8 = 1 << iota
	sawNaN
	sawKind
)

// New creates a zone map over columns of the given kinds.
func New(kinds []types.Kind) *ZoneMap {
	n := len(kinds)
	return &ZoneMap{kinds: kinds, mins: make([]types.Value, n), maxs: make([]types.Value, n), flags: make([]uint8, n)}
}

// Observe widens the per-column ranges with one row's values. vals is
// positional over the partition's columns.
func (z *ZoneMap) Observe(vals []types.Value) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.n++
	for i, v := range vals {
		z.widenLocked(i, v)
	}
}

// ObserveCols widens the ranges of the columns an update wrote: vals[i] is
// column cols[i]'s new value. It counts as one observed row, as Observe.
func (z *ZoneMap) ObserveCols(cols []schema.ColID, vals []types.Value) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.n++
	for i, c := range cols {
		z.widenLocked(int(c), vals[i])
	}
}

func (z *ZoneMap) widenLocked(i int, v types.Value) {
	switch {
	case i >= len(z.mins):
		return
	case v.IsNull():
		z.flags[i] |= sawNull
		return
	case v.K == types.KindFloat64 && math.IsNaN(v.F):
		z.flags[i] |= sawNaN
		return
	case v.K != z.kinds[i]:
		z.flags[i] |= sawKind
	}
	if z.mins[i].IsNull() {
		z.mins[i], z.maxs[i] = v, v
		return
	}
	if types.Compare(v, z.mins[i]) < 0 {
		z.mins[i] = v
	}
	if types.Compare(v, z.maxs[i]) > 0 {
		z.maxs[i] = v
	}
}

// ObserveID widens the populated row-id span. Like value ranges, the span
// only widens; deletions keep it conservative until Rebuild.
func (z *ZoneMap) ObserveID(id schema.RowID) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.observeIDLocked(id)
}

func (z *ZoneMap) observeIDLocked(id schema.RowID) {
	if !z.hasID {
		z.idLo, z.idHi, z.hasID = id, id, true
		return
	}
	if id < z.idLo {
		z.idLo = id
	}
	if id > z.idHi {
		z.idHi = id
	}
}

// IDSpan returns the inclusive [lo, hi] row-id span of observed rows; ok is
// false when no row was ever observed.
func (z *ZoneMap) IDSpan() (lo, hi schema.RowID, ok bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.idLo, z.idHi, z.hasID
}

// Rebuild replaces the ranges from a partition's whole image.
func (z *ZoneMap) Rebuild(img storage.Image) {
	nz := New(z.kinds)
	nz.n = len(img.IDs)
	if n := len(img.IDs); n > 0 {
		nz.idLo, nz.idHi, nz.hasID = img.IDs[0], img.IDs[n-1], true
	}
	for c := range img.Cols {
		for i := range img.IDs {
			nz.widenLocked(c, img.Cols[c].Value(i))
		}
	}
	z.mu.Lock()
	z.mins, z.maxs, z.flags, z.n = nz.mins, nz.maxs, nz.flags, nz.n
	z.idLo, z.idHi, z.hasID = nz.idLo, nz.idHi, nz.hasID
	z.mu.Unlock()
}

// Range returns the (min, max) for a column; ok is false when the column
// has no observed non-NULL values.
func (z *ZoneMap) Range(col schema.ColID) (types.Value, types.Value, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if int(col) >= len(z.mins) || z.mins[col].IsNull() {
		return types.Null(), types.Null(), false
	}
	return z.mins[col], z.maxs[col], true
}

// CanSkip reports whether the predicate provably matches no row in the
// partition, based only on the column ranges.
func (z *ZoneMap) CanSkip(pred storage.Pred) bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	for _, c := range pred {
		if int(c.Col) >= len(z.mins) || z.mins[c.Col].IsNull() || z.flags[c.Col]&sawNaN != 0 {
			continue // no information: cannot skip on this conjunct
		}
		lo, hi := z.mins[c.Col], z.maxs[c.Col]
		switch c.Op {
		case storage.CmpEq:
			if types.Compare(c.Val, lo) < 0 || types.Compare(c.Val, hi) > 0 {
				return true
			}
		case storage.CmpLt:
			if types.Compare(lo, c.Val) >= 0 {
				return true
			}
		case storage.CmpLe:
			if types.Compare(lo, c.Val) > 0 {
				return true
			}
		case storage.CmpGt:
			if types.Compare(hi, c.Val) <= 0 {
				return true
			}
		case storage.CmpGe:
			if types.Compare(hi, c.Val) < 0 {
				return true
			}
		}
	}
	return false
}

// DropImplied filters pred in place down to the conjuncts that some
// observed row may fail, and returns it: a conjunct is dropped when its
// column saw no NULL, NaN or value of another kind and its whole [min, max]
// satisfies it under types.Compare, the order FilterVec applies (a NaN or
// cross-kind constant included). Scanning with what is left returns the
// same rows as long as the map covers every value the scanned store can
// return — the caller reads it before capturing the store.
func (z *ZoneMap) DropImplied(pred storage.Pred) storage.Pred {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := pred[:0]
	for _, c := range pred {
		if !z.impliedLocked(c) {
			out = append(out, c)
		}
	}
	return out
}

// impliedLocked reports whether every observed value of c's column
// satisfies c.
func (z *ZoneMap) impliedLocked(c storage.Cond) bool {
	i := int(c.Col)
	if i >= len(z.mins) || z.mins[i].IsNull() || z.flags[i] != 0 || c.Val.IsNull() {
		return false
	}
	lo, hi := types.Compare(z.mins[i], c.Val), types.Compare(z.maxs[i], c.Val)
	switch c.Op {
	case storage.CmpEq:
		return lo == 0 && hi == 0
	case storage.CmpNe:
		return hi < 0 || lo > 0
	case storage.CmpLt:
		return hi < 0
	case storage.CmpLe:
		return hi <= 0
	case storage.CmpGt:
		return lo > 0
	case storage.CmpGe:
		return lo >= 0
	}
	return false
}

// EstimateSelectivity estimates the fraction of partition rows satisfying
// the predicate, assuming each numeric column is uniform over [min, max]
// and conjuncts are independent. Used by the ASA to argue about scan and
// join costs (§5.1).
func (z *ZoneMap) EstimateSelectivity(pred storage.Pred) float64 {
	z.mu.RLock()
	defer z.mu.RUnlock()
	sel := 1.0
	for _, c := range pred {
		if int(c.Col) >= len(z.mins) || z.mins[c.Col].IsNull() {
			sel *= 0.5 // unknown column: neutral guess
			continue
		}
		lo, hi := z.mins[c.Col].Float(), z.maxs[c.Col].Float()
		width := hi - lo
		v := c.Val.Float()
		var f float64
		switch c.Op {
		case storage.CmpEq:
			if width <= 0 {
				if types.Compare(c.Val, z.mins[c.Col]) == 0 {
					f = 1
				}
			} else if n := float64(z.n); n > 0 {
				f = 1 / n
			} else {
				f = 0.1
			}
		case storage.CmpNe:
			f = 1
		case storage.CmpLt, storage.CmpLe:
			switch {
			case width <= 0:
				if v >= hi {
					f = 1
				}
			case v <= lo:
				f = 0
			case v >= hi:
				f = 1
			default:
				f = (v - lo) / width
			}
		case storage.CmpGt, storage.CmpGe:
			switch {
			case width <= 0:
				if v <= lo {
					f = 1
				}
			case v >= hi:
				f = 0
			case v <= lo:
				f = 1
			default:
				f = (hi - v) / width
			}
		}
		sel *= f
	}
	return sel
}

// Rows reports the number of observed rows.
func (z *ZoneMap) Rows() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.n
}
