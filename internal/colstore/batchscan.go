package colstore

// Native vectorized scan over the merged column representation — the
// column stores' only scan loop, with or without a pending delta. Predicate
// conditions run as typed filter kernels composing a selection vector, RLE
// columns evaluate each run once and skip failing runs wholesale, and the
// output batch carries zero-copy views over the column arrays (RLE columns
// holding NULLs expand only the selected chunk into the batch's pooled
// buffers). A pending delta changes two things: base rows a visible delta
// version supersedes leave the selection vector, and the live delta rows go
// out as small owned batches — after the base chunks on row-id layouts, at
// their ordered positions on sorted ones.

import (
	"slices"
	"sort"
	"sync/atomic"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Package-wide delta-scan counters, surfaced by the engine's metrics
// snapshot beside exec.batches.*.
var (
	statDeltaUnits atomic.Int64 // scans whose range held pending delta rows
	statRowsMasked atomic.Int64 // predicate-passing base rows a delta version superseded
	statDeltaRows  atomic.Int64 // live delta rows emitted
)

// DeltaScanStats snapshots the delta-scan counters.
type DeltaScanStats struct {
	Units, RowsMasked, DeltaRows int64
}

// ReadDeltaScanStats reads the cumulative delta-scan counters.
func ReadDeltaScanStats() DeltaScanStats {
	return DeltaScanStats{Units: statDeltaUnits.Load(), RowsMasked: statRowsMasked.Load(), DeltaRows: statDeltaRows.Load()}
}

// batchScan is one merged-view vectorized scan over base positions
// [lo, hi) with optional row-id clipping (the range contract on
// value-sorted layouts, where positions interleave ids arbitrarily).
type batchScan struct {
	rowIDs     []schema.RowID
	cols       []*colData // by store column; the touched ones must be set
	sortBy     schema.ColID
	lo, hi     int
	over       []schema.RowID // superseded ids, ascending (deltaStore.view)
	live       []deltaRow     // live delta rows in layout order
	proj       []schema.ColID
	pred       storage.Pred
	clip       bool
	idLo, idHi schema.RowID
	maxRows    int
}

// narrow sets the base positions a scan of ids [lo, hi) visits. Row-id
// layouts keep the offset array ascending, so two binary searches find
// them. On a value-sorted layout the predicate's conditions on the sort
// column, whose value at position i is at(i), narrow them instead, and
// ids outside [lo, hi) are clipped row by row unless the range is the
// whole store.
func (s *batchScan) narrow(lo, hi schema.RowID, at func(int) types.Value) {
	if s.sortBy == storage.NoSort {
		s.lo, _ = slices.BinarySearch(s.rowIDs, lo)
		s.hi, _ = slices.BinarySearch(s.rowIDs, hi)
		return
	}
	s.lo, s.hi = sortedRange(len(s.rowIDs), at, s.sortBy, s.pred)
	s.clip, s.idLo, s.idHi = lo > storage.MinRow || hi < storage.MaxRow, lo, hi
}

func (s *batchScan) run(fn func(*storage.Batch) bool) {
	if s.maxRows <= 0 {
		s.maxRows = storage.DefaultBatchRows
	}
	if len(s.over) > 0 {
		statDeltaUnits.Add(1)
	}
	b := storage.GetBatch(len(s.proj))
	defer storage.PutBatch(b)
	oi, di := 0, 0 // the next superseded id (row-id layouts), the next live delta row
	for p0 := s.lo; p0 < s.hi; {
		p1 := min(p0+s.maxRows, s.hi)
		if s.sortBy != storage.NoSort && di < len(s.live) {
			// Delta rows ordered before position p0 go out first; the
			// chunk then ends where the next one belongs.
			n := di
			for n < len(s.live) && !s.baseLess(p0, s.live[n]) {
				n++
			}
			if !s.emitLive(b, s.live[di:n], fn) {
				return
			}
			if di = n; di < len(s.live) {
				p1 = p0 + sort.Search(p1-p0, func(i int) bool { return !s.baseLess(p0+i, s.live[di]) })
			}
		}
		if !s.chunk(b, p0, p1, &oi, fn) {
			return
		}
		p0 = p1
	}
	s.emitLive(b, s.live[di:], fn)
}

// chunk filters base positions [p0, p1) into b's selection vector — a
// range's lower and upper bound on one column in one pass — and emits the
// survivors as one batch of column views.
func (s *batchScan) chunk(b *storage.Batch, p0, p1 int, oi *int, fn func(*storage.Batch) bool) bool {
	var sel []int32 // nil = all rows of the chunk selected
	k, pruned := 0, false
	keep := func(dst []int32) { // dst was built in b.Scratch[k]
		b.Scratch[k], k, sel, pruned = dst, k^1, dst, len(dst) == 0
	}
	var paired uint64 // conditions filtered together with an earlier one
	for i, cond := range s.pred {
		if i < 64 && paired>>i&1 != 0 {
			continue
		}
		if j := rangePartner(s.pred, i, paired); j >= 0 {
			if dst, ok := filterColPair(b.Scratch[k][:0], sel, s.cols[cond.Col], p0, p1, cond, s.pred[j]); ok {
				paired |= 1 << j
				keep(dst)
				if pruned {
					break
				}
				continue
			}
		}
		keep(filterColRange(b.Scratch[k][:0], sel, s.cols[cond.Col], p0, p1, cond.Op, cond.Val))
		if pruned {
			break
		}
	}
	if !pruned && s.clip {
		dst := b.Scratch[k][:0]
		if sel == nil {
			for p := p0; p < p1; p++ {
				if id := s.rowIDs[p]; id >= s.idLo && id < s.idHi {
					dst = append(dst, int32(p-p0))
				}
			}
		} else {
			for _, si := range sel {
				if id := s.rowIDs[p0+int(si)]; id >= s.idLo && id < s.idHi {
					dst = append(dst, si)
				}
			}
		}
		keep(dst)
	}
	if !pruned && len(s.over) > 0 {
		if dst, hit := s.mask(b.Scratch[k][:0], sel, p0, p1, oi); hit {
			keep(dst)
		}
	}
	if pruned {
		storage.RecordPrunedRows(p1 - p0)
		return true
	}

	b.Reset(len(s.proj))
	b.SetRowIDsView(s.rowIDs[p0:p1])
	b.Sel = sel
	for i, cID := range s.proj {
		c := s.cols[cID]
		if c.enc != encRLE {
			// Plain columns are zero-copy views; dictionary and FoR
			// columns hand out encoded views over the raw codes.
			b.Vecs[i] = c.viewVec(p0, p1)
		} else if rv, ok := c.runsVec(p0, p1); ok {
			b.Vecs[i] = rv
		} else {
			// NULL-bearing runs: expand into pooled buffers.
			c.fillVec(&b.Vecs[i], p0, p1)
		}
	}
	return storage.EmitBatch(b, fn)
}

// mask appends to dst the chunk's selected positions (sel, nil = all of
// [p0, p1)) whose row id no visible delta version supersedes; hit=false
// means nothing was dropped and sel stands. On row-id layouts ids ascend
// with position, so the ascending superseded ids are walked beside the
// chunk (*oi carries the walk across chunks); on value-sorted layouts each
// selected row's id is looked up by binary search.
func (s *batchScan) mask(dst, sel []int32, p0, p1 int, oi *int) ([]int32, bool) {
	ids, over := s.rowIDs[p0:p1], s.over
	idOrder := s.sortBy == storage.NoSort
	if idOrder {
		for *oi < len(over) && over[*oi] < ids[0] {
			*oi++
		}
		if *oi == len(over) || over[*oi] > ids[len(ids)-1] {
			return sel, false
		}
	}
	n, j := len(ids), *oi
	if sel != nil {
		n = len(sel)
	}
	for x := 0; x < n; x++ {
		i := int32(x)
		if sel != nil {
			i = sel[x]
		}
		var gone bool
		if id := ids[i]; idOrder {
			for j < len(over) && over[j] < id {
				j++
			}
			gone = j < len(over) && over[j] == id
		} else {
			_, gone = slices.BinarySearch(over, id)
		}
		if !gone {
			dst = append(dst, i)
		}
	}
	*oi = j
	if len(dst) == n {
		return sel, false
	}
	statRowsMasked.Add(int64(n - len(dst)))
	return dst, true
}

// baseLess reports whether base position p orders before delta row dr on a
// value-sorted layout: by sort value, then by row id.
func (s *batchScan) baseLess(p int, dr deltaRow) bool {
	if c := types.Compare(s.cols[s.sortBy].get(p), dr.vals[s.sortBy]); c != 0 {
		return c < 0
	}
	return s.rowIDs[p] < dr.id
}

// emitLive sends live delta rows as owned batches of at most maxRows rows,
// filled column by column.
func (s *batchScan) emitLive(b *storage.Batch, rows []deltaRow, fn func(*storage.Batch) bool) bool {
	for len(rows) > 0 {
		n := min(len(rows), s.maxRows)
		b.Reset(len(s.proj))
		b.RowIDs = slices.Grow(b.RowIDs, n)
		for _, dr := range rows[:n] {
			b.RowIDs = append(b.RowIDs, dr.id)
		}
		for i, c := range s.proj {
			for _, dr := range rows[:n] {
				b.Vecs[i].Append(dr.vals[c])
			}
		}
		statDeltaRows.Add(int64(n))
		if !storage.EmitBatch(b, fn) {
			return false
		}
		rows = rows[n:]
	}
	return true
}

// sortedRange narrows the base positions [0, n) of a value-sorted layout
// by binary search on the predicate's conditions over the sort column,
// whose value at position i is at(i) (the "sorted scan" operator of
// Table 1).
func sortedRange(n int, at func(int) types.Value, sortBy schema.ColID, pred storage.Pred) (int, int) {
	lo, hi := 0, n
	for _, c := range pred {
		if c.Col != sortBy || c.Op == storage.CmpNe {
			continue
		}
		ge := sort.Search(n, func(i int) bool { return types.Compare(at(i), c.Val) >= 0 })
		gt := sort.Search(n, func(i int) bool { return types.Compare(at(i), c.Val) > 0 })
		switch c.Op {
		case storage.CmpEq:
			lo, hi = max(lo, ge), min(hi, gt)
		case storage.CmpGe:
			lo = max(lo, ge)
		case storage.CmpGt:
			lo = max(lo, gt)
		case storage.CmpLe:
			hi = min(hi, gt)
		case storage.CmpLt:
			hi = min(hi, ge)
		}
	}
	return min(lo, hi), hi
}

// rangePartner returns the index after i (below 64, not in paired) of a
// condition that bounds condition i's column from the other side — a Gt or
// Ge with an Lt or Le — or -1.
func rangePartner(pred storage.Pred, i int, paired uint64) int {
	lower := func(op storage.CmpOp) bool { return op == storage.CmpGt || op == storage.CmpGe }
	upper := func(op storage.CmpOp) bool { return op == storage.CmpLt || op == storage.CmpLe }
	c := pred[i]
	if !lower(c.Op) && !upper(c.Op) {
		return -1
	}
	for j := i + 1; j < min(len(pred), 64); j++ {
		if d := pred[j]; d.Col == c.Col && paired>>j&1 == 0 && (lower(c.Op) && upper(d.Op) || upper(c.Op) && lower(d.Op)) {
			return j
		}
	}
	return -1
}

// filterColPair is filterColRange for a range's two bounds on one column,
// in one pass over positions [p0, p1) (storage.FilterVecRange); false,
// with nothing appended, on an RLE column or where the bounds do not both
// translate into the column's code space.
func filterColPair(dst []int32, sel []int32, c *colData, p0, p1 int, lo, hi storage.Cond) ([]int32, bool) {
	if c.enc == encRLE {
		return dst, false
	}
	v := c.viewVec(p0, p1)
	return storage.FilterVecRange(dst, sel, p1-p0, &v, lo.Op, lo.Val, hi.Op, hi.Val)
}

// filterColRange appends to dst the batch-relative indexes in [p0, p1)
// (restricted to sel when non-nil, ascending) whose value satisfies
// (op, val). RLE columns evaluate each run once and skip failing runs
// without expansion.
func filterColRange(dst []int32, sel []int32, c *colData, p0, p1 int, op storage.CmpOp, val types.Value) []int32 {
	if c.enc != encRLE {
		v := c.viewVec(p0, p1)
		return storage.FilterVec(dst, sel, p1-p0, &v, op, val)
	}
	nr := len(c.runStart) - 1
	if sel == nil {
		for r := c.runIndex(p0); r < nr && int(c.runStart[r]) < p1; r++ {
			if !op.Eval(c.runVal(r), val) {
				continue // whole run skipped
			}
			st := int(c.runStart[r])
			if st < p0 {
				st = p0
			}
			en := int(c.runStart[r+1])
			if en > p1 {
				en = p1
			}
			for p := st; p < en; p++ {
				dst = append(dst, int32(p-p0))
			}
		}
		return dst
	}
	r := c.runIndex(p0)
	cur, keep := -1, false
	for _, si := range sel {
		p := p0 + int(si)
		for r+1 < nr && int(c.runStart[r+1]) <= p {
			r++
		}
		if r != cur {
			keep = op.Eval(c.runVal(r), val)
			cur = r
		}
		if keep {
			dst = append(dst, si)
		}
	}
	return dst
}
