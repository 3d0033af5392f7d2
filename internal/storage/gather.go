package storage

// Columnar append/gather kernels for the batch join and group-by engine.
// AppendVec is the workhorse: it copies selected rows from a (possibly
// encoded, possibly borrowed) source vector into an owned decoded vector,
// staying on typed arrays whenever NULLs are absent. The join engine uses
// it both to accumulate probe-side scan batches into column chunks and to
// late-materialize payload columns by gathering matched row indexes.

import (
	"proteus/internal/types"
)

// AppendVec appends rows of src onto v, decoding any encoded source view.
// sel selects the physical source rows to copy (nil means every row). The
// destination becomes (or stays) a decoded EncNone owned vector; sources
// or destinations carrying NULLs fall back to the boxed per-row path so
// Null-array bookkeeping stays exact.
func (v *Vec) AppendVec(src *Vec, sel []int32) {
	n := src.Len()
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return
	}
	if src.Enc == EncNone && (src.Null != nil || src.Kind == types.KindNull) || v.Null != nil {
		v.appendVecBoxed(src, sel)
		return
	}
	if v.Kind == types.KindNull {
		v.adopt(src.Kind)
	}
	if v.Kind != src.Kind {
		// Rare kind coercion (e.g. a float column meeting an int vector):
		// Append's boxed path owns the numeric coercion rules.
		v.appendVecBoxed(src, sel)
		return
	}
	switch src.Enc {
	case EncDict:
		v.Str = growSlice(v.Str, n)
		if sel == nil {
			for _, c := range src.Codes {
				v.Str = append(v.Str, src.Dict[c])
			}
		} else {
			for _, r := range sel {
				v.Str = append(v.Str, src.Dict[src.Codes[r]])
			}
		}
	case EncFoR:
		v.I64 = growSlice(v.I64, n)
		if sel == nil {
			for _, c := range src.Codes {
				v.I64 = append(v.I64, src.Base+int64(c))
			}
		} else {
			for _, r := range sel {
				v.I64 = append(v.I64, src.Base+int64(src.Codes[r]))
			}
		}
	case EncRuns:
		v.appendVecRuns(src, sel)
	default:
		switch src.Kind {
		case types.KindFloat64:
			v.F64 = growSlice(v.F64, n)
			if sel == nil {
				v.F64 = append(v.F64, src.F64...)
			} else {
				for _, r := range sel {
					v.F64 = append(v.F64, src.F64[r])
				}
			}
		case types.KindString:
			v.Str = growSlice(v.Str, n)
			if sel == nil {
				v.Str = append(v.Str, src.Str...)
			} else {
				for _, r := range sel {
					v.Str = append(v.Str, src.Str[r])
				}
			}
		default:
			v.I64 = growSlice(v.I64, n)
			if sel == nil {
				v.I64 = append(v.I64, src.I64...)
			} else {
				for _, r := range sel {
					v.I64 = append(v.I64, src.I64[r])
				}
			}
		}
	}
}

// Reserve makes room for n more rows of kind k in one allocation: a vector
// that holds no rows and has no kind takes k, and the payload array its
// kind selects grows to hold n more. A vector of another kind appended
// afterwards still coerces as AppendVec does.
func (v *Vec) Reserve(k types.Kind, n int) {
	if v.Kind == types.KindNull && v.Len() == 0 {
		v.Kind = k
	}
	switch v.Kind {
	case types.KindNull:
	case types.KindFloat64:
		v.F64 = growSlice(v.F64, n)
	case types.KindString:
		v.Str = growSlice(v.Str, n)
	default:
		v.I64 = growSlice(v.I64, n)
	}
}

// growSlice reserves room for n more elements in one reallocation,
// doubling at minimum so repeated small appends stay amortized O(1). A
// large gather (a join materializing 100k matches) pays one allocation
// instead of log(n) doubling copies.
func growSlice[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	c := len(s) + n
	if c < 2*cap(s) {
		c = 2 * cap(s)
	}
	ns := make([]T, len(s), c)
	copy(ns, s)
	return ns
}

// appendVecRuns expands a run-length source. Without a selection the runs
// expand linearly; under a selection each row binary-searches its run.
func (v *Vec) appendVecRuns(src *Vec, sel []int32) {
	if sel != nil {
		for _, r := range sel {
			ri := src.RunIndex(int(r))
			switch src.Kind {
			case types.KindFloat64:
				v.F64 = append(v.F64, src.F64[ri])
			case types.KindString:
				v.Str = append(v.Str, src.Str[ri])
			default:
				v.I64 = append(v.I64, src.I64[ri])
			}
		}
		return
	}
	lo := uint32(0)
	for ri, end := range src.RunEnds {
		n := int(end - lo)
		switch src.Kind {
		case types.KindFloat64:
			x := src.F64[ri]
			for i := 0; i < n; i++ {
				v.F64 = append(v.F64, x)
			}
		case types.KindString:
			x := src.Str[ri]
			for i := 0; i < n; i++ {
				v.Str = append(v.Str, x)
			}
		default:
			x := src.I64[ri]
			for i := 0; i < n; i++ {
				v.I64 = append(v.I64, x)
			}
		}
		lo = end
	}
}

func (v *Vec) appendVecBoxed(src *Vec, sel []int32) {
	if sel == nil {
		n := src.Len()
		for r := 0; r < n; r++ {
			v.Append(src.Value(r))
		}
		return
	}
	for _, r := range sel {
		v.Append(src.Value(int(r)))
	}
}
