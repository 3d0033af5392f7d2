package exec

import (
	"slices"
	"sort"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// RuntimeFilter is a Bloom + min-max filter computed from a hash join's
// build-side key column and pushed into the probe side's scan (§4.3): the
// min-max bounds become ordinary predicate conjuncts that the morsel
// scheduler's zone maps can prune whole morsels with and FilterVec applies
// within batches, while the Bloom filter drops non-matching probe rows
// batch-at-a-time before they are probed, materialized or shipped. It is
// derived from the same canonical keys and the same hash as the join table
// (hashKey/hashValue). A NULL key matches nothing, so NULL build keys are
// left out and NULL probe keys never pass.
type RuntimeFilter struct {
	bits     []uint64
	mask     uint64 // word-index mask (word count - 1); bits may be nil (no Bloom)
	n        int    // non-NULL build keys folded in
	min, max types.Value
}

// maxBloomBuildRows caps the build cardinality beyond which the Bloom
// filter is not built (the bitset would be large and a filter that big
// rarely rejects much); min-max bounds are still tracked.
const maxBloomBuildRows = 4 << 20

// BuildRuntimeFilter folds the key column of a build-side relation into a
// new runtime filter.
func BuildRuntimeFilter(c *ColRel, key int) *RuntimeFilter {
	kc := canonKeyCol(&c.Vecs[key], c.NumRows())
	f := &RuntimeFilter{}
	f.fill(kc, kc.hashes(), c.Vecs[key].Kind)
	return f
}

// fill folds canonical keys (hashes hs) into an empty filter: bounds, and
// Bloom bits unless hs is nil. kind is the key column's kind, which typed
// bounds are boxed back into.
func (f *RuntimeFilter) fill(kc keyCol, hs []uint64, kind types.Kind) {
	f.widen(kc, kind)
	if hs == nil || f.n == 0 || f.n > maxBloomBuildRows {
		return
	}
	nbits := uint64(256)
	for nbits < uint64(f.n)*10 {
		nbits <<= 1
	}
	f.bits = make([]uint64, nbits/64)
	f.mask = nbits/64 - 1
	for i, h := range hs {
		if !kc.null(i) {
			f.bits[(h>>12)&f.mask] |= bloomMask(h)
		}
	}
}

// Widen folds the min-max bounds of key column key of c into f, with no
// Bloom bits: the zero RuntimeFilter widened by every share of a build
// side spread over sites holds the bounds that side pushes into its probe
// scan before any site has built its table.
func (f *RuntimeFilter) Widen(c *ColRel, key int) {
	if c.NumRows() > 0 {
		f.widen(canonKeyCol(&c.Vecs[key], c.NumRows()), c.Vecs[key].Kind)
	}
}

// widen folds canonical keys into the filter's count and min-max bounds.
// kind is the key column's kind, which typed bounds are boxed back into.
func (f *RuntimeFilter) widen(kc keyCol, kind types.Kind) {
	if kc.ints != nil {
		mn, mx := kc.ints[0], kc.ints[0]
		for _, x := range kc.ints[1:] {
			mn, mx = min(mn, x), max(mx, x)
		}
		box := func(x int64) types.Value {
			if kind == types.KindFloat64 {
				return types.NewFloat64(float64(x))
			}
			return types.Value{K: kind, I: x}
		}
		f.n += len(kc.ints)
		f.include(box(mn))
		f.include(box(mx))
		return
	}
	for _, v := range kc.vals {
		if !v.IsNull() {
			f.n++
			f.include(v)
		}
	}
}

// include widens the bounds to cover v.
func (f *RuntimeFilter) include(v types.Value) {
	if f.min.IsNull() || types.Compare(v, f.min) < 0 {
		f.min = v
	}
	if f.max.IsNull() || types.Compare(v, f.max) > 0 {
		f.max = v
	}
}

// bloomMask picks a key's two bits within its 64-bit Bloom word. The word
// itself is chosen by bits 12.. of the hash, so one load answers a test.
func bloomMask(h uint64) uint64 { return 1<<(h&63) | 1<<((h>>6)&63) }

func (f *RuntimeFilter) testHash(h uint64) bool {
	if f.bits == nil {
		return true
	}
	m := bloomMask(h)
	return f.bits[(h>>12)&f.mask]&m == m
}

// Empty reports whether the build side had no non-NULL key, in which case
// an inner join's probe side need not be scanned at all.
func (f *RuntimeFilter) Empty() bool { return f == nil || f.n == 0 }

// Bytes is the filter's size on the wire: Bloom words, bounds and a header.
func (f *RuntimeFilter) Bytes() int64 {
	return int64(8*len(f.bits)) + int64(types.VarWidth(f.min)+types.VarWidth(f.max)) + 64
}

// TestValue reports whether a probe key may have a build-side match (a
// NULL one never has).
func (f *RuntimeFilter) TestValue(v types.Value) bool {
	return !v.IsNull() && f.testHash(hashValue(v))
}

// BoundsPred returns min-max conjuncts on the probe key column, suitable
// for appending to a scan predicate (zone-map morsel pruning + FilterVec).
// Predicate Eval drops NULL probe rows, which the join would drop too. Nil
// when the filter saw no key.
func (f *RuntimeFilter) BoundsPred(col schema.ColID) storage.Pred {
	if f == nil || f.n == 0 {
		return nil
	}
	return storage.Pred{
		{Col: col, Op: storage.CmpGe, Val: f.min},
		{Col: col, Op: storage.CmpLe, Val: f.max},
	}
}

// FilterBatch narrows a scan batch's selection to the rows whose key
// column passes the Bloom filter, writing the surviving selection into
// scratch (which must not alias b.Sel) and installing it as b.Sel. It
// returns the scratch slice for reuse. Encoded key vectors are tested on
// raw codes: FoR rows hash base+code without decoding and dictionary
// vectors memoize one verdict per distinct code.
func (f *RuntimeFilter) FilterBatch(b *storage.Batch, key int, scratch []int32) []int32 {
	n := b.Len()
	if n == 0 {
		return scratch
	}
	if scratch == nil {
		// b.Sel == nil means "every row": an empty result must not be nil.
		scratch = make([]int32, 0, n)
	}
	out := scratch[:0]
	v := &b.Vecs[key]
	statBloomTested.Add(int64(n))
	switch {
	case v.Enc == storage.EncFoR:
		b.Selected(func(r int) bool {
			if f.testHash(hashKey(v.Base + int64(v.Codes[r]))) {
				out = append(out, int32(r))
			}
			return true
		})
	case v.Enc == storage.EncDict:
		verdict := make([]uint8, len(v.Dict)) // 0 untested, 1 pass, 2 fail
		b.Selected(func(r int) bool {
			c := v.Codes[r]
			if verdict[c] == 0 {
				if f.TestValue(types.NewString(v.Dict[c])) {
					verdict[c] = 1
				} else {
					verdict[c] = 2
				}
			}
			if verdict[c] == 1 {
				out = append(out, int32(r))
			}
			return true
		})
	case v.Enc == storage.EncNone && v.Null == nil && v.Kind != types.KindFloat64 && v.Kind != types.KindString && v.Kind != types.KindNull:
		b.Selected(func(r int) bool {
			if f.testHash(hashKey(v.I64[r])) {
				out = append(out, int32(r))
			}
			return true
		})
	default:
		b.Selected(func(r int) bool {
			if f.TestValue(v.Value(r)) {
				out = append(out, int32(r))
			}
			return true
		})
	}
	statBloomPassed.Add(int64(len(out)))
	b.Sel = out
	return out
}

// FilterCols returns the rows of c whose key passes the filter — the
// materialized-input counterpart of FilterBatch, used when the probe side
// is itself a join output or a non-morsel scan.
func (f *RuntimeFilter) FilterCols(c *ColRel, key int) ColRel {
	n := c.NumRows()
	sel := make([]int32, 0, n)
	v := &c.Vecs[key]
	statBloomTested.Add(int64(n))
	for r := 0; r < n; r++ {
		if f.TestValue(v.Value(r)) {
			sel = append(sel, int32(r))
		}
	}
	statBloomPassed.Add(int64(len(sel)))
	if len(sel) == n {
		return *c
	}
	out := NewColRel(c.Cols)
	out.Gather(c, sel)
	return out
}

// KeyRange is an inclusive range [Lo, Hi] of probe key values, as a zone
// map records a column's.
type KeyRange struct{ Lo, Hi types.Value }

// MergeRanges sorts ranges by Lo and merges the ones that overlap, in
// place, leaving what RouteRows searches.
func MergeRanges(rs []KeyRange) []KeyRange {
	slices.SortFunc(rs, func(a, b KeyRange) int { return types.Compare(a.Lo, b.Lo) })
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 && types.Compare(r.Lo, out[n-1].Hi) <= 0 {
			if types.Compare(r.Hi, out[n-1].Hi) > 0 {
				out[n-1].Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// RouteRows appends to sel the rows of c whose key in column key may equal
// a probe key inside one of ranges (sorted and disjoint, as MergeRanges
// leaves them) and returns it. Keys compare as zone maps compare them —
// types.Compare, across numeric kinds by value, so 1 and 1.0 route alike
// as the join matches them — and a NULL key routes nowhere.
func RouteRows(c *ColRel, key int, ranges []KeyRange, sel []int32) []int32 {
	v := &c.Vecs[key]
	for r := 0; r < c.NumRows(); r++ {
		x := v.Value(r)
		if x.IsNull() {
			continue
		}
		i := sort.Search(len(ranges), func(i int) bool { return types.Compare(x, ranges[i].Hi) <= 0 })
		if i < len(ranges) && types.Compare(x, ranges[i].Lo) >= 0 {
			sel = append(sel, int32(r))
		}
	}
	return sel
}
