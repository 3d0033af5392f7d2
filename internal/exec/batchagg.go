package exec

import (
	"proteus/internal/storage"
	"proteus/internal/types"
)

// The aggregate kernels over batch vectors. Grouped, an aggregate folds
// its input column row by row into the rows' groups, through typed adders
// for null-free int64 and float64 vectors and raw FoR codes. Ungrouped,
// it reduces the whole vector at once: FoR vectors on their codes
// (sum(base+code) == sum(codes) + n*base modulo 2^64, which is the boxed
// repeated add; the extremes sit at the extreme codes), dictionary vectors
// on their codes for MIN and MAX (the dictionary is sorted), RLE vectors
// run by run. Anything else folds boxed, value by value, so types.Add's
// kind rules hold exactly.

// foldRows folds the input of row rows[j] of b into group gids[j].
func (c *aggCol) foldRows(b *Batch, rows, gids []int32) {
	if c.cnts != nil {
		nulls := c.nulls(b)
		for j, g := range gids {
			if nulls == nil || !nulls[rows[j]] {
				c.cnts[g]++
			}
		}
	}
	if c.vals == nil {
		return
	}
	v := &b.Vecs[c.col]
	switch {
	case v.Enc == storage.EncNone && v.Null == nil && v.Kind == types.KindInt64:
		for j, g := range gids {
			c.addInt(g, v.I64[rows[j]])
		}
	case v.Enc == storage.EncFoR && v.Kind == types.KindInt64:
		for j, g := range gids {
			c.addInt(g, v.Base+int64(v.Codes[rows[j]]))
		}
		storage.RecordEncodedFold()
	case v.Enc == storage.EncNone && v.Null == nil && v.Kind == types.KindFloat64:
		for j, g := range gids {
			c.addFloat(g, v.F64[rows[j]])
		}
	default:
		for j, g := range gids {
			c.put(g, v.Value(int(rows[j])))
		}
	}
}

// foldVec folds the n selected rows of b into group 0.
func (c *aggCol) foldVec(b *Batch, n int) {
	if c.cnts != nil {
		if nulls := c.nulls(b); nulls == nil {
			c.cnts[0] += int64(n)
		} else {
			b.Selected(func(r int) bool {
				if !nulls[r] {
					c.cnts[0]++
				}
				return true
			})
		}
	}
	if c.vals == nil {
		return
	}
	v := &b.Vecs[c.col]
	val, ok := reduceVec(v, b.Sel, c.fn)
	if !ok {
		b.Selected(func(r int) bool {
			c.put(0, v.Value(r))
			return true
		})
		return
	}
	c.put(0, val)
}

// reduceVec reduces the rows sel of v (every row when sel is nil) to what
// the aggregate fn reads, without boxing a row, NULL when there are none.
// ok is false for a vector no kernel covers; a dictionary vector is
// covered for MIN and MAX only.
func reduceVec(v *Vec, sel []int32, fn AggFunc) (val types.Value, ok bool) {
	extreme := fn == AggMin || fn == AggMax
	switch {
	case v.Enc == storage.EncFoR && v.Kind == types.KindInt64:
		if x, n := reduce[uint32, int64](v.Codes, sel, fn); n > 0 {
			if !extreme { // the sum holds n bases, the extremes one
				x += int64(n-1) * v.Base
			}
			val = types.NewInt64(x + v.Base)
		}
		storage.RecordEncodedFold()
	case v.Enc == storage.EncDict && extreme:
		if x, n := reduce[uint32, int64](v.Codes, sel, fn); n > 0 {
			val = types.NewString(v.Dict[x])
		}
		storage.RecordEncodedFold()
	case v.Enc == storage.EncRuns && sel == nil && v.Kind == types.KindInt64:
		xs := v.I64[:len(v.RunEnds)]
		var x int64
		if extreme {
			x, _ = reduce[int64, int64](xs, nil, fn)
		} else {
			// x*runLen is wrap-identical to adding x runLen times.
			start := uint32(0)
			for r, end := range v.RunEnds {
				x += xs[r] * int64(end-start)
				start = end
			}
		}
		if len(xs) > 0 {
			val = types.NewInt64(x)
		}
		storage.RecordEncodedFold()
	case v.Enc == storage.EncRuns && sel == nil && v.Kind == types.KindFloat64:
		xs := v.F64[:len(v.RunEnds)]
		var x float64
		if extreme {
			x, _ = reduce[float64, float64](xs, nil, fn)
		} else {
			// Repeated addition: multiplying by the run length would round
			// differently from the row-by-row sum.
			start := uint32(0)
			for r, end := range v.RunEnds {
				for k := start; k < end; k++ {
					x += xs[r]
				}
				start = end
			}
		}
		if len(xs) > 0 {
			val = types.NewFloat64(x)
		}
		storage.RecordEncodedFold()
	case v.Enc == storage.EncNone && v.Null == nil && v.Kind == types.KindInt64:
		if x, n := reduce[int64, int64](v.I64, sel, fn); n > 0 {
			val = types.NewInt64(x)
		}
	case v.Enc == storage.EncNone && v.Null == nil && v.Kind == types.KindFloat64:
		if x, n := reduce[float64, float64](v.F64, sel, fn); n > 0 {
			val = types.NewFloat64(x)
		}
	default:
		return val, false
	}
	return val, true
}

// reduce folds xs, or its rows sel, to what fn reads and nothing more: the
// sum in row order for SUM and AVG, the least for MIN, the greatest for
// MAX. n counts the rows.
func reduce[T int64 | float64 | uint32, S int64 | float64](xs []T, sel []int32, fn AggFunc) (r S, n int) {
	sum := fn != AggMin && fn != AggMax
	if sel == nil {
		if sum {
			for _, x := range xs {
				r += S(x)
			}
			return r, len(xs)
		}
		if len(xs) == 0 {
			return 0, 0
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if fn == AggMin {
			hi = lo
		}
		return S(hi), len(xs)
	}
	if sum {
		for _, i := range sel {
			r += S(xs[i])
		}
		return r, len(sel)
	}
	if len(sel) == 0 {
		return 0, 0
	}
	lo, hi := xs[sel[0]], xs[sel[0]]
	for _, i := range sel {
		x := xs[i]
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if fn == AggMin {
		hi = lo
	}
	return S(hi), len(sel)
}
