package storage

// Typed predicate kernels: selection-vector filters that compare a vector
// against a constant without boxing each element into a types.Value. The
// fast paths mirror types.Compare exactly (int family compared on the raw
// I payload, float promotion when either side is Float64, lexicographic
// strings); anything subtle — NULLs, mixed kind tags — falls back to the
// boxed comparator so batch and row paths can never disagree. Every
// comparison in an ordered integer code space (FoR codes, dictionary
// codes, int-family values) runs as one branch-free keep-set test.

import (
	"math"
	"slices"
	"sort"

	"proteus/internal/types"
)

// opMask decomposes a comparison operator into which of {<, =, >} keep a
// row, matching CmpOp.Eval (unknown ops keep nothing).
func opMask(op CmpOp) (lt, eq, gt bool) {
	switch op {
	case CmpEq:
		return false, true, false
	case CmpNe:
		return true, false, true
	case CmpLt:
		return true, false, false
	case CmpLe:
		return true, true, false
	case CmpGt:
		return false, false, true
	case CmpGe:
		return false, true, true
	}
	return false, false, false
}

// keepSet is a comparison against a constant in an ordered unsigned code
// space, as the set of codes it keeps: x is kept iff (x-a < w) != inv,
// in uint64 arithmetic. Every comparison keeps an interval or the
// complement of one, so one test covers all six operators.
type keepSet struct {
	a, w uint64
	inv  bool
}

// keepOf is the keep-set of (op, c) for a constant c that is itself a
// code (unknown ops keep nothing).
func keepOf(op CmpOp, c uint64) keepSet {
	switch op {
	case CmpEq, CmpNe:
		return keepSet{c, 1, op == CmpNe}
	case CmpLt, CmpGe:
		return keepSet{0, c, op == CmpGe}
	case CmpGt, CmpLe:
		return keepSet{c + 1, math.MaxUint64 - c, op == CmpLe}
	}
	return keepSet{}
}

// keepBelow is keepOf for a constant no code equals, lying between codes
// c-1 and c (below every code when c is 0): x <= constant is x < c, and
// x > constant is x >= c.
func keepBelow(op CmpOp, c uint64) keepSet {
	switch op {
	case CmpEq, CmpNe:
		return keepSet{inv: op == CmpNe}
	case CmpLe:
		op = CmpLt
	case CmpGt:
		op = CmpGe
	}
	return keepOf(op, c)
}

// filterKeep appends to dst the rows in [0, n), or in sel, whose code is
// in k. The loop has no data-dependent branch: every row is written at
// the end of dst, and the end moves past it only when the row is kept.
func filterKeep[T uint32 | int64](dst, sel []int32, n int, xs []T, k keepSet) []int32 {
	if k.w == 0 && !k.inv { // keeps nothing
		return dst
	}
	m := n
	if sel != nil {
		m = len(sel)
	}
	start := len(dst)
	dst = slices.Grow(dst, m)
	out := dst[start : start+m]
	a, w, inv, j := k.a, k.w, k.inv, 0
	if sel == nil {
		for i, x := range xs[:n] {
			out[j] = int32(i)
			if (uint64(x)-a < w) != inv {
				j++
			}
		}
	} else {
		for _, si := range sel {
			out[j] = si
			if (uint64(xs[si])-a < w) != inv {
				j++
			}
		}
	}
	return dst[:start+j]
}

// intFamilyKind reports kinds whose payload lives in Value.I and which
// types.Compare orders by raw integer comparison when paired together.
func intFamilyKind(k types.Kind) bool {
	return k == types.KindInt64 || k == types.KindTime || k == types.KindBool
}

func numericKind(k types.Kind) bool {
	return intFamilyKind(k) || k == types.KindFloat64
}

// keep3 decides a row three-way like types.Compare: a float NaN compares
// "equal" there, so x == c must not be the equality test.
func keep3[T float64 | string](x, c T, lt, eq, gt bool) bool {
	if x < c {
		return lt
	}
	if x > c {
		return gt
	}
	return eq
}

// filterOrdered is FilterVec's loop over floats and strings.
func filterOrdered[T float64 | string](dst, sel []int32, n int, xs []T, c T, op CmpOp) []int32 {
	lt, eq, gt := opMask(op)
	if sel == nil {
		for i, x := range xs[:n] {
			if keep3(x, c, lt, eq, gt) {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, si := range sel {
		if keep3(xs[si], c, lt, eq, gt) {
			dst = append(dst, si)
		}
	}
	return dst
}

// FilterVec appends to dst the indexes in [0, n) — restricted to sel when
// sel is non-nil — whose value in v satisfies (op, val), preserving
// ascending order. n is the vector length; dst is returned grown.
// Encoded vectors are filtered without decoding: dictionary comparisons
// become a one-time binary search producing a keep-set tested per row,
// frame-of-reference columns test raw codes against the keep-set of a
// translated constant, and run-length vectors evaluate each run once.
func FilterVec(dst []int32, sel []int32, n int, v *Vec, op CmpOp, val types.Value) []int32 {
	if k, ok := codeKeep(v, op, val); ok {
		return filterCodes(dst, sel, n, v, k)
	}
	if v.Enc != EncNone {
		return filterEncoded(dst, sel, n, v, op, val)
	}
	if v.Null == nil && !val.IsNull() {
		switch {
		case v.Kind == types.KindFloat64 && numericKind(val.K):
			return filterOrdered(dst, sel, n, v.F64, val.Float(), op)
		case v.Kind == types.KindString && val.K == types.KindString:
			return filterOrdered(dst, sel, n, v.Str, val.S, op)
		case intFamilyKind(v.Kind) && val.K == types.KindFloat64:
			lt, eq, gt := opMask(op)
			if sel == nil {
				for i, x := range v.I64[:n] {
					if keep3(float64(x), val.F, lt, eq, gt) {
						dst = append(dst, int32(i))
					}
				}
				return dst
			}
			for _, si := range sel {
				if keep3(float64(v.I64[si]), val.F, lt, eq, gt) {
					dst = append(dst, si)
				}
			}
			return dst
		}
	}
	// NULLs or mixed kind tags: the boxed comparator is the source of
	// truth for ordering across kinds.
	return filterBoxed(dst, sel, n, v, op, val)
}

// filterBoxed is the row-at-a-time fallback through Value, correct for any
// encoding and any constant kind.
func filterBoxed(dst []int32, sel []int32, n int, v *Vec, op CmpOp, val types.Value) []int32 {
	if sel == nil {
		for i := 0; i < n; i++ {
			if op.Eval(v.Value(i), val) {
				dst = append(dst, int32(i))
			}
		}
	} else {
		for _, si := range sel {
			if op.Eval(v.Value(int(si)), val) {
				dst = append(dst, si)
			}
		}
	}
	return dst
}

// filterEncoded dispatches on the vector's encoding once codeKeep has
// declined it: run-length vectors evaluate each run once; constants whose
// kind does not fit a code space (e.g. a float constant against a FoR
// column, where translation would change float-promotion semantics) fall
// back to the boxed comparator through Value, which decodes per row.
func filterEncoded(dst []int32, sel []int32, n int, v *Vec, op CmpOp, val types.Value) []int32 {
	if v.Enc == EncRuns {
		return filterRuns(dst, sel, v, op, val)
	}
	return filterBoxed(dst, sel, n, v, op, val)
}

// signBit is the flip that orders int64s as uint64s.
const signBit = 1 << 63

// codeKeep returns the keep-set of (op, val) in v's ordered code space,
// and false when v has none val can be translated into. Int-family values
// compare with the sign bit flipped, which orders int64s as uint64s; FoR
// columns compare raw codes against the constant translated once (stored
// values are base + code with code < 2^32, so a constant below the base
// lies below every code and one beyond the code range above every code);
// dictionary columns compare codes against where the constant sorts in
// the dictionary (the constant's code, or between two codes when absent).
func codeKeep(v *Vec, op CmpOp, val types.Value) (keepSet, bool) {
	switch {
	case v.Enc == EncNone && v.Null == nil && intFamilyKind(v.Kind) && intFamilyKind(val.K):
		return keepOf(op, uint64(val.I)^signBit), true
	case v.Enc == EncFoR && intFamilyKind(val.K):
		switch d := uint64(val.I) - uint64(v.Base); {
		case val.I < v.Base:
			return keepBelow(op, 0), true
		case d > math.MaxUint32:
			return keepBelow(op, math.MaxUint32+1), true
		default:
			return keepOf(op, d), true
		}
	case v.Enc == EncDict && val.K == types.KindString:
		lo := sort.SearchStrings(v.Dict, val.S) // first code >= the constant
		if lo < len(v.Dict) && v.Dict[lo] == val.S {
			return keepOf(op, uint64(lo)), true
		}
		return keepBelow(op, uint64(lo)), true
	}
	return keepSet{}, false
}

// filterCodes appends the rows whose code codeKeep's keep-set k keeps. On
// plain int-family values (x^s)-a == x-(a^s), so the sign flip folds into
// the keep-set and the raw values are tested.
func filterCodes(dst, sel []int32, n int, v *Vec, k keepSet) []int32 {
	if v.Enc == EncNone {
		k.a ^= signBit
		return filterKeep(dst, sel, n, v.I64, k)
	}
	statCodeFilters.Add(1)
	return filterKeep(dst, sel, n, v.Codes, k)
}

// interval returns the codes k keeps as [lo, hi] — lo > hi when it keeps
// none — and false when they are no interval (a not-equal).
func (k keepSet) interval() (lo, hi uint64, ok bool) {
	end := k.a + k.w - 1 // the last code of [a, a+w)
	switch {
	case k.w == 0:
		if k.inv {
			return 0, math.MaxUint64, true
		}
		return 1, 0, true
	case !k.inv:
		return k.a, end, end >= k.a
	case k.a == 0:
		return k.w, math.MaxUint64, true
	case end == math.MaxUint64:
		return 0, k.a - 1, true
	}
	return 0, 0, false
}

// keepRange is the keep-set of the codes in [lo, hi], none when lo > hi.
func keepRange(lo, hi uint64) keepSet {
	switch {
	case lo > hi:
		return keepSet{}
	case hi-lo == math.MaxUint64:
		return keepSet{inv: true} // every code
	}
	return keepSet{a: lo, w: hi - lo + 1}
}

// FilterVecRange is FilterVec for two comparisons on one vector — a
// range's lower and upper bound — answered in one pass: where both
// keep-sets lie in the vector's code space and are intervals it keeps
// their intersection with one filterKeep, and otherwise returns false
// having appended nothing, so the caller filters each comparison on its
// own.
func FilterVecRange(dst []int32, sel []int32, n int, v *Vec, op1 CmpOp, val1 types.Value, op2 CmpOp, val2 types.Value) ([]int32, bool) {
	k1, ok1 := codeKeep(v, op1, val1)
	k2, ok2 := codeKeep(v, op2, val2)
	if !ok1 || !ok2 {
		return dst, false
	}
	lo1, hi1, ok1 := k1.interval()
	lo2, hi2, ok2 := k2.interval()
	if !ok1 || !ok2 {
		return dst, false
	}
	return filterCodes(dst, sel, n, v, keepRange(max(lo1, lo2), min(hi1, hi2))), true
}

// filterRuns evaluates the predicate once per run and keeps or skips each
// run's covered rows wholesale.
func filterRuns(dst []int32, sel []int32, v *Vec, op CmpOp, val types.Value) []int32 {
	if sel == nil {
		lo := 0
		for r, end := range v.RunEnds {
			e := int(end)
			if op.Eval(v.runValue(r), val) {
				for i := lo; i < e; i++ {
					dst = append(dst, int32(i))
				}
			}
			lo = e
		}
		return dst
	}
	r, cur, keep := 0, -1, false
	for _, si := range sel {
		for r < len(v.RunEnds) && v.RunEnds[r] <= uint32(si) {
			r++
		}
		if r != cur {
			keep = op.Eval(v.runValue(r), val)
			cur = r
		}
		if keep {
			dst = append(dst, si)
		}
	}
	return dst
}
