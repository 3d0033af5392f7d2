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
	if v.Enc != EncNone {
		return filterEncoded(dst, sel, n, v, op, val)
	}
	if v.Null == nil && !val.IsNull() {
		switch {
		case intFamilyKind(v.Kind) && intFamilyKind(val.K):
			// Flipping the sign bit orders int64s as uint64s, and
			// (x^s)-a == x-(a^s), so the flip folds into the keep-set.
			const s = 1 << 63
			k := keepOf(op, uint64(val.I)^s)
			k.a ^= s
			return filterKeep(dst, sel, n, v.I64, k)
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

// filterEncoded dispatches on the vector's encoding. Constants whose kind
// does not fit the fast path (e.g. a float constant against a FoR column,
// where translation would change float-promotion semantics) fall back to
// the boxed comparator through Value, which decodes per row.
func filterEncoded(dst []int32, sel []int32, n int, v *Vec, op CmpOp, val types.Value) []int32 {
	switch v.Enc {
	case EncDict:
		if val.K == types.KindString {
			statCodeFilters.Add(1)
			return filterDictCodes(dst, sel, n, v, op, val.S)
		}
	case EncFoR:
		if intFamilyKind(val.K) {
			statCodeFilters.Add(1)
			return filterFoRCodes(dst, sel, n, v, op, val.I)
		}
	case EncRuns:
		return filterRuns(dst, sel, v, op, val)
	}
	return filterBoxed(dst, sel, n, v, op, val)
}

// filterDictCodes evaluates the comparison once against the sorted
// dictionary: the constant's code, or where it would sort when absent,
// gives the keep-set the raw codes are tested against.
func filterDictCodes(dst []int32, sel []int32, n int, v *Vec, op CmpOp, c string) []int32 {
	lo := sort.SearchStrings(v.Dict, c) // first code >= c
	k := keepBelow(op, uint64(lo))
	if lo < len(v.Dict) && v.Dict[lo] == c {
		k = keepOf(op, uint64(lo))
	}
	return filterKeep(dst, sel, n, v.Codes, k)
}

// filterFoRCodes translates the integer constant into code space once and
// compares raw codes. Stored values are base + code with code < 2^32, so a
// constant below the base lies below every code and one beyond the code
// range above every code.
func filterFoRCodes(dst []int32, sel []int32, n int, v *Vec, op CmpOp, cv int64) []int32 {
	var k keepSet
	switch d := uint64(cv) - uint64(v.Base); {
	case cv < v.Base:
		k = keepBelow(op, 0)
	case d > math.MaxUint32:
		k = keepBelow(op, math.MaxUint32+1)
	default:
		k = keepOf(op, d)
	}
	return filterKeep(dst, sel, n, v.Codes, k)
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
