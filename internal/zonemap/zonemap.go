// Package zonemap implements per-partition zone maps (§4.1.3 of the paper):
// the minimum and maximum value of every column stored in a partition,
// maintained in memory, used to skip partitions whose value ranges cannot
// satisfy a query predicate and to estimate predicate selectivity (§5.1).
package zonemap

import (
	"sync"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// ZoneMap tracks min/max per column. The zero value is empty; use New.
// Updates widen the ranges; deletions do not narrow them (ranges are
// conservative until Rebuild).
type ZoneMap struct {
	mu   sync.RWMutex
	mins []types.Value
	maxs []types.Value
	n    int // observed rows

	// Populated row-id span, used to clip scan morsels to the id range
	// that actually holds rows (partition bounds are often far wider).
	idLo, idHi schema.RowID
	hasID      bool
}

// New creates a zone map over ncols columns.
func New(ncols int) *ZoneMap {
	return &ZoneMap{mins: make([]types.Value, ncols), maxs: make([]types.Value, ncols)}
}

// Observe widens the per-column ranges with one row's values. vals is
// positional over the partition's columns; NULLs are ignored.
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
	if i >= len(z.mins) || v.IsNull() {
		return
	}
	if z.mins[i].IsNull() || types.Compare(v, z.mins[i]) < 0 {
		z.mins[i] = v
	}
	if z.maxs[i].IsNull() || types.Compare(v, z.maxs[i]) > 0 {
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
	nz := New(len(z.mins))
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
	z.mins, z.maxs, z.n = nz.mins, nz.maxs, nz.n
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
		if int(c.Col) >= len(z.mins) || z.mins[c.Col].IsNull() {
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
