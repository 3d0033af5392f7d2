package exec

import (
	"math"

	"proteus/internal/storage"
	"proteus/internal/types"
)

// Aggregate state and the kernels that fold batch vectors into it. Each
// SUM, AVG, MIN and MAX keeps one state column, indexed by group id, whose
// element type follows its inputs: int64 while every input has been an
// int64 vector (plain, FoR or RLE), float64 while every one has been a
// float64 vector, boxed types.Value otherwise (strings, dictionary codes,
// Time and Bool columns, and a column that has seen two kinds, from then
// on). A typed column folds a batch with one loop per function, the
// function switch hoisted out of it: a grouped SUM is s[g].x += x[r].
// Values are boxed only where the state leaves the table: Rel,
// PartialBytes and MergeFrom against a boxed column.
//
// The typed folds are the boxed fold's results, bit for bit. int64 sums
// wrap as types.Add does, in any order. A float64 sum starts at −0.0,
// which adds nothing to any value (−0.0 included), and adds in row order,
// so it rounds exactly as adding each boxed value to the one before. MIN
// and MAX replace the state only when an input orders strictly before
// (after) it, as types.Compare orders, so a NaN is kept when it comes first
// and skipped when it does not.

// stateKind is what an aggregate's state column holds.
type stateKind uint8

const (
	stateNone  stateKind = iota // nothing folded yet, so no column
	stateInt                    // ints: only int64 inputs folded
	stateFloat                  // flts: only float64 inputs folded
	stateBoxed                  // vals: anything else
)

// cell is one group's aggregate state: the running sum (SUM, AVG) or the
// extreme so far (MIN, MAX), and the number of non-NULL inputs folded into
// it. A cell with none reads as NULL.
type cell[T any] struct {
	x T
	n int64
}

// aggCol is one aggregate's state, indexed by group id: COUNT and
// COUNT(col) in cnts, every other function in the one column its kind
// names.
type aggCol struct {
	fn   AggFunc
	col  int // input position; COUNT reads none
	kind stateKind
	ints []cell[int64]
	flts []cell[float64]
	vals []cell[types.Value]
	cnts []int64 // COUNT: rows observed; COUNT(col): non-NULL inputs
}

// negZero is the float sum's starting state.
var negZero = math.Copysign(0, -1)

// counts reports whether the aggregate is a COUNT, which keeps no value.
func (c *aggCol) counts() bool { return c.fn == AggCount || c.fn == AggCountCol }

// grow sizes the state column for size groups.
func (c *aggCol) grow(size int) {
	switch {
	case c.counts():
		c.cnts = extend(c.cnts, size)
	case c.kind == stateInt:
		c.ints = extend(c.ints, size)
	case c.kind == stateFloat:
		n := len(c.flts)
		c.flts = extend(c.flts, size)
		for g := n; g < size; g++ {
			c.flts[g].x = negZero
		}
	case c.kind == stateBoxed:
		c.vals = extend(c.vals, size)
	}
}

// settle readies the state column for inputs that fold as k and returns
// the kind they fold into: k while every input so far folded as k, boxed
// from the first input that does not.
func (c *aggCol) settle(k stateKind, size int) stateKind {
	switch {
	case c.kind == k:
	case c.kind == stateNone:
		c.kind = k
		c.grow(size)
	case c.kind != stateBoxed:
		vals := make([]cell[types.Value], size)
		for g := range vals {
			vals[g] = cell[types.Value]{c.value(g), c.count(g)}
		}
		c.ints, c.flts, c.vals, c.kind = nil, nil, vals, stateBoxed
	}
	return c.kind
}

// inputState is the state kind a vector's values fold as; none for a
// vector of NULLs, which folds nothing.
func inputState(v *storage.Vec) stateKind {
	switch {
	case v.Kind == types.KindNull:
		return stateNone
	case v.Kind == types.KindInt64 && v.Enc != storage.EncDict:
		return stateInt
	case v.Kind == types.KindFloat64 && (v.Enc == storage.EncNone || v.Enc == storage.EncRuns):
		return stateFloat
	}
	return stateBoxed
}

// value boxes group g's state: its sum or extreme, NULL when it holds no
// input.
func (c *aggCol) value(g int) types.Value {
	switch c.kind {
	case stateInt:
		if s := c.ints[g]; s.n > 0 {
			return types.NewInt64(s.x)
		}
	case stateFloat:
		if s := c.flts[g]; s.n > 0 {
			return types.NewFloat64(s.x)
		}
	case stateBoxed:
		return c.vals[g].x
	}
	return types.Null()
}

// count is the number of non-NULL inputs in group g's state.
func (c *aggCol) count(g int) int64 {
	switch c.kind {
	case stateInt:
		return c.ints[g].n
	case stateFloat:
		return c.flts[g].n
	case stateBoxed:
		return c.vals[g].n
	}
	return 0
}

// result finishes group g's aggregate.
func (c *aggCol) result(g int) types.Value {
	switch {
	case c.counts():
		return types.NewInt64(c.cnts[g])
	case c.fn == AggAvg:
		n := c.count(g)
		if n == 0 {
			return types.Null()
		}
		return types.NewFloat64(c.value(g).Float() / float64(n))
	}
	return c.value(g)
}

// put folds one boxed input into group g's state, boxing the column first.
// A NULL input changes nothing.
func (c *aggCol) put(g int32, v types.Value, size int) {
	if v.IsNull() {
		return
	}
	c.settle(stateBoxed, size)
	c.foldBoxed(&c.vals[g], v, 1)
}

// foldBoxed folds v, a non-NULL value standing for n inputs, into s: SUM
// and AVG add it, MIN and MAX keep the extreme.
func (c *aggCol) foldBoxed(s *cell[types.Value], v types.Value, n int64) {
	switch c.fn {
	case AggMin:
		if s.n == 0 || types.Compare(v, s.x) < 0 {
			s.x = v
		}
	case AggMax:
		if s.n == 0 || types.Compare(v, s.x) > 0 {
			s.x = v
		}
	default:
		s.x = types.Add(s.x, v)
	}
	s.n += n
}

// merge folds o's state — another aggregator's column for the same spec —
// into this one, o's group og landing in group gids[og].
func (c *aggCol) merge(o *aggCol, gids []int32, size int) {
	if c.counts() {
		for og, g := range gids {
			c.cnts[g] += o.cnts[og]
		}
		return
	}
	if o.kind == stateNone {
		return
	}
	switch c.settle(o.kind, size) {
	case stateInt:
		for og, g := range gids {
			mergeCell(&c.ints[g], o.ints[og], c.fn)
		}
	case stateFloat:
		for og, g := range gids {
			mergeCell(&c.flts[g], o.flts[og], c.fn)
		}
	default:
		for og, g := range gids {
			if n := o.count(og); n > 0 {
				c.foldBoxed(&c.vals[g], o.value(og), n)
			}
		}
	}
}

// mergeCell folds state o into s.
func mergeCell[T int64 | float64](s *cell[T], o cell[T], fn AggFunc) {
	if o.n == 0 {
		return
	}
	switch fn {
	case AggMin:
		if s.n == 0 || o.x < s.x {
			s.x = o.x
		}
	case AggMax:
		if s.n == 0 || o.x > s.x {
			s.x = o.x
		}
	default:
		s.x += o.x
	}
	s.n += o.n
}

// nulls returns the NULL bitmap of the aggregate's input column in b when
// the aggregate counts only non-NULL inputs (COUNT(col), AVG); nil means
// every row counts. Only plain vectors carry NULLs.
func (c *aggCol) nulls(b *Batch) []bool {
	if c.fn == AggCount {
		return nil
	}
	return b.Vecs[c.col].Null
}

// foldScratch holds what the typed folds of one aggregator reuse across
// batches: RLE inputs expanded row by row, and rows with a NULL input
// dropped.
type foldScratch struct {
	ints       []int64
	flts       []float64
	rows, gids []int32
}

// nonNull returns rows and their groups gids (nil when ungrouped) without
// the rows whose input is NULL (nil nulls: every row has one).
func (s *foldScratch) nonNull(nulls []bool, rows, gids []int32) ([]int32, []int32) {
	if nulls == nil {
		return rows, gids
	}
	s.rows, s.gids = s.rows[:0], s.gids[:0]
	for j, r := range rows {
		if !nulls[r] {
			s.rows = append(s.rows, r)
			if gids != nil {
				s.gids = append(s.gids, gids[j])
			}
		}
	}
	if gids == nil {
		return s.rows, nil
	}
	return s.rows, s.gids
}

// expandRuns sets dst[j] to the value of row rows[j] of the runs vals,
// ends (an EncRuns payload), reusing dst's capacity. The rows ascend, as a
// selection does; a row before the current run restarts the walk.
func expandRuns[T int64 | float64](dst []T, vals []T, ends []uint32, rows []int32) []T {
	dst = dst[:0]
	r := 0
	for _, row := range rows {
		if r > 0 && uint32(row) < ends[r-1] {
			r = 0
		}
		for ends[r] <= uint32(row) {
			r++
		}
		dst = append(dst, vals[r])
	}
	return dst
}

// fold folds the input of row rows[j] of b into group gids[j], or every
// row into group 0 when gids is nil (an ungrouped aggregate). Typed inputs
// fold through one loop per function, FoR codes plus their base, RLE runs
// expanded first; anything else folds boxed, row by row, except that the
// ungrouped extreme of a dictionary vector is its extreme code's entry,
// the dictionary being sorted.
func (c *aggCol) fold(b *Batch, rows, gids []int32, size int, s *foldScratch) {
	if c.counts() {
		nulls := c.nulls(b)
		switch {
		case gids != nil:
			for j, g := range gids {
				if nulls == nil || !nulls[rows[j]] {
					c.cnts[g]++
				}
			}
		case nulls == nil:
			c.cnts[0] += int64(len(rows))
		default:
			at, _ := s.nonNull(nulls, rows, nil)
			c.cnts[0] += int64(len(at))
		}
		return
	}
	v := &b.Vecs[c.col]
	k := inputState(v)
	if k == stateNone {
		return
	}
	switch c.settle(k, size) {
	case stateInt:
		switch v.Enc {
		case storage.EncFoR:
			foldTyped(c.ints, c.fn, v.Codes, v.Base, rows, gids)
			storage.RecordEncodedFold()
		case storage.EncRuns:
			s.ints = expandRuns(s.ints, v.I64, v.RunEnds, rows)
			foldTyped(c.ints, c.fn, s.ints, 0, rowsUpTo(len(rows)), gids)
			storage.RecordEncodedFold()
		default:
			at, gs := s.nonNull(v.Null, rows, gids)
			foldTyped(c.ints, c.fn, v.I64, 0, at, gs)
		}
	case stateFloat:
		if v.Enc == storage.EncRuns {
			s.flts = expandRuns(s.flts, v.F64, v.RunEnds, rows)
			foldTyped(c.flts, c.fn, s.flts, negZero, rowsUpTo(len(rows)), gids)
			storage.RecordEncodedFold()
			return
		}
		at, gs := s.nonNull(v.Null, rows, gids)
		foldTyped(c.flts, c.fn, v.F64, negZero, at, gs)
	case stateBoxed:
		if gids == nil && v.Enc == storage.EncDict && (c.fn == AggMin || c.fn == AggMax) {
			var code cell[int64]
			foldOne(&code, c.fn, v.Codes, 0, rows)
			c.foldBoxed(&c.vals[0], types.NewString(v.Dict[code.x]), int64(len(rows)))
			storage.RecordEncodedFold()
			return
		}
		for j, r := range rows {
			g := int32(0)
			if gids != nil {
				g = gids[j]
			}
			if x := v.Value(int(r)); !x.IsNull() {
				c.foldBoxed(&c.vals[g], x, 1)
			}
		}
	}
}

// foldTyped folds base + xs[at[j]] into cell gids[j] of cs under fn — into
// cell 0, the state held in a register, when gids is nil. A float fold
// passes base −0.0, which leaves every input as it is.
func foldTyped[T int64 | float64, S int64 | float64 | uint32](cs []cell[T], fn AggFunc, xs []S, base T, at, gids []int32) {
	if gids == nil {
		foldOne(&cs[0], fn, xs, base, at)
		return
	}
	at = at[:len(gids)]
	switch fn {
	case AggMin:
		for j, g := range gids {
			s, x := &cs[g], base+T(xs[at[j]])
			if s.n == 0 || x < s.x {
				s.x = x
			}
			s.n++
		}
	case AggMax:
		for j, g := range gids {
			s, x := &cs[g], base+T(xs[at[j]])
			if s.n == 0 || x > s.x {
				s.x = x
			}
			s.n++
		}
	default:
		for j, g := range gids {
			s := &cs[g]
			s.x += base + T(xs[at[j]])
			s.n++
		}
	}
}

// foldOne folds base + xs[r] for the rows r of at into s under fn, in row
// order.
func foldOne[T int64 | float64, S int64 | float64 | uint32](s *cell[T], fn AggFunc, xs []S, base T, at []int32) {
	if len(at) == 0 {
		return
	}
	x, seen := s.x, s.n > 0
	switch fn {
	case AggMin:
		for _, r := range at {
			if y := base + T(xs[r]); !seen || y < x {
				x, seen = y, true
			}
		}
	case AggMax:
		for _, r := range at {
			if y := base + T(xs[r]); !seen || y > x {
				x, seen = y, true
			}
		}
	default:
		for _, r := range at {
			x += base + T(xs[r])
		}
	}
	s.x, s.n = x, s.n+int64(len(at))
}
