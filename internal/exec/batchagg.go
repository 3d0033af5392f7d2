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
	sum, lo, hi, ok := reduceVec(v, b.Sel, c.fn)
	if !ok {
		b.Selected(func(r int) bool {
			c.put(0, v.Value(r))
			return true
		})
		return
	}
	switch c.fn {
	case AggMin:
		c.put(0, lo)
	case AggMax:
		c.put(0, hi)
	default:
		c.put(0, sum)
	}
}

// reduceVec reduces the rows sel of v (every row when sel is nil) to their
// sum and extremes without boxing a row, all NULL when there are none. ok
// is false for a vector no kernel covers; a dictionary vector is covered
// for MIN and MAX only.
func reduceVec(v *Vec, sel []int32, fn AggFunc) (sum, lo, hi types.Value, ok bool) {
	switch {
	case v.Enc == storage.EncFoR && v.Kind == types.KindInt64:
		s, l, h, n := span[uint32, int64](v.Codes, sel)
		if n > 0 {
			sum = types.NewInt64(s + int64(n)*v.Base)
			lo, hi = types.NewInt64(v.Base+int64(l)), types.NewInt64(v.Base+int64(h))
		}
		storage.RecordEncodedFold()
	case v.Enc == storage.EncDict && (fn == AggMin || fn == AggMax):
		_, l, h, n := span[uint32, int64](v.Codes, sel)
		if n > 0 {
			lo, hi = types.NewString(v.Dict[l]), types.NewString(v.Dict[h])
		}
		storage.RecordEncodedFold()
	case v.Enc == storage.EncRuns && sel == nil && v.Kind == types.KindInt64:
		// x*runLen is wrap-identical to adding x runLen times.
		xs := v.I64[:len(v.RunEnds)]
		var s int64
		start := uint32(0)
		for r, end := range v.RunEnds {
			s += xs[r] * int64(end-start)
			start = end
		}
		if _, l, h, n := span[int64, int64](xs, nil); n > 0 {
			sum, lo, hi = types.NewInt64(s), types.NewInt64(l), types.NewInt64(h)
		}
		storage.RecordEncodedFold()
	case v.Enc == storage.EncRuns && sel == nil && v.Kind == types.KindFloat64:
		// Repeated addition: multiplying by the run length would round
		// differently from the row-by-row sum.
		xs := v.F64[:len(v.RunEnds)]
		var s float64
		start := uint32(0)
		for r, end := range v.RunEnds {
			for k := start; k < end; k++ {
				s += xs[r]
			}
			start = end
		}
		if _, l, h, n := span[float64, float64](xs, nil); n > 0 {
			sum, lo, hi = types.NewFloat64(s), types.NewFloat64(l), types.NewFloat64(h)
		}
		storage.RecordEncodedFold()
	case v.Enc == storage.EncNone && v.Null == nil && v.Kind == types.KindInt64:
		if s, l, h, n := span[int64, int64](v.I64, sel); n > 0 {
			sum, lo, hi = types.NewInt64(s), types.NewInt64(l), types.NewInt64(h)
		}
	case v.Enc == storage.EncNone && v.Null == nil && v.Kind == types.KindFloat64:
		if s, l, h, n := span[float64, float64](v.F64, sel); n > 0 {
			sum, lo, hi = types.NewFloat64(s), types.NewFloat64(l), types.NewFloat64(h)
		}
	default:
		return sum, lo, hi, false
	}
	return sum, lo, hi, true
}

// span reduces xs, or its rows sel, to their sum and extremes; n counts
// the rows.
func span[T int64 | float64 | uint32, S int64 | float64](xs []T, sel []int32) (sum S, lo, hi T, n int) {
	if sel == nil {
		if len(xs) == 0 {
			return
		}
		lo, hi = xs[0], xs[0]
		for _, x := range xs {
			sum += S(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return sum, lo, hi, len(xs)
	}
	if len(sel) == 0 {
		return
	}
	lo, hi = xs[sel[0]], xs[sel[0]]
	for _, r := range sel {
		x := xs[r]
		sum += S(x)
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return sum, lo, hi, len(sel)
}
