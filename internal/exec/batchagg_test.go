package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"proteus/internal/storage"
	"proteus/internal/types"
)

// sameBits reports whether two values are the same value bit for bit: a
// float compared by its bits, so −0.0 differs from +0.0. A NaN matches any
// NaN: which of two NaNs an addition returns follows the operand order the
// compiler picks for the instruction, in the boxed fold as in the typed one.
func sameBits(a, b types.Value) bool {
	sameF := math.Float64bits(a.F) == math.Float64bits(b.F) || math.IsNaN(a.F) && math.IsNaN(b.F)
	return a.K == b.K && a.I == b.I && a.S == b.S && sameF
}

func sameBitsRel(t *testing.T, name string, got, want Rel) {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %d groups, want %d", name, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		for k := range want.Tuples[i] {
			if g, w := got.Tuples[i][k], want.Tuples[i][k]; !sameBits(g, w) {
				t.Fatalf("%s: row %d col %d: %+v, want %+v", name, i, k, g, w)
			}
		}
	}
}

// TestTypedStateMatchesBoxedFold holds the typed aggregate state to the
// boxed fold it replaces, bit for bit: ObserveBatch's typed kernels
// against Observe, which folds every row boxed through types.Add and
// types.Compare, over seeded batches whose value columns are
//   - floats drawn from −0.0, +0.0, NaN, ±Inf and mixed magnitudes, with
//     NULLs, plain and run-length;
//   - only −0.0, whose SUM is −0.0, not +0.0;
//   - int64s near both extremes, so sums wrap, with NULLs, plain, FoR and
//     run-length;
//   - a mix of plain, FoR, RLE and dictionary vectors of every kind across
//     the batches of one aggregator, so a column's state turns boxed
//     partway;
//
// grouped (on a plain or FoR key) and not, with and without selections,
// under SUM, AVG, MIN, MAX, COUNT(col) and COUNT. Each half of the batches
// is also folded typed and boxed, and every pairing of the halves merged
// into a coordinator must equal merging the two boxed halves; a typed
// share must price as the boxed one.
func TestTypedStateMatchesBoxedFold(t *testing.T) {
	specs := []AggSpec{{Func: AggSum, Col: 1}, {Func: AggAvg, Col: 1}, {Func: AggMin, Col: 1},
		{Func: AggMax, Col: 1}, {Func: AggCountCol, Col: 1}, {Func: AggCount}}
	negZero := math.Copysign(0, -1)
	floats := []float64{negZero, 0, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e-300, 3.5, -2.25, 1e16, 1}
	ints := []int64{math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 3, 0, -1, 7, 1 << 62}
	rng := rand.New(rand.NewSource(55))

	// value returns n rows of one value vector of the family.
	var value func(family string, n int) Vec
	value = func(family string, n int) Vec {
		nulls := func(v Vec) Vec {
			if rng.Intn(3) == 0 {
				v.Null = make([]bool, n)
				for i := range v.Null {
					v.Null[i] = rng.Intn(4) == 0
				}
			}
			return v
		}
		runs := func(kind types.Kind) Vec {
			var is []int64
			var fs []float64
			var ends []uint32
			for end := 0; end < n; {
				end = min(n, end+1+rng.Intn(5))
				is = append(is, ints[rng.Intn(len(ints))])
				fs = append(fs, floats[rng.Intn(len(floats))])
				ends = append(ends, uint32(end))
			}
			if kind == types.KindFloat64 {
				return storage.RunsVec(kind, nil, fs, nil, ends)
			}
			return storage.RunsVec(kind, is, nil, nil, ends)
		}
		switch family {
		case "negzero":
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = negZero
			}
			return storage.ViewVec(types.KindFloat64, nil, xs, nil, nil)
		case "float":
			if rng.Intn(4) == 0 {
				return runs(types.KindFloat64)
			}
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = floats[rng.Intn(len(floats))]
			}
			return nulls(storage.ViewVec(types.KindFloat64, nil, xs, nil, nil))
		case "int":
			switch rng.Intn(4) {
			case 0:
				return runs(types.KindInt64)
			case 1:
				codes := make([]uint32, n)
				for i := range codes {
					codes[i] = rng.Uint32()
				}
				return storage.FoRVec(types.KindInt64, ints[rng.Intn(len(ints))]/2, codes)
			}
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = ints[rng.Intn(len(ints))]
			}
			return nulls(storage.ViewVec(types.KindInt64, xs, nil, nil, nil))
		}
		switch rng.Intn(4) {
		case 0:
			codes := make([]uint32, n)
			for i := range codes {
				codes[i] = uint32(rng.Intn(3))
			}
			return storage.DictVec(codes, []string{"a", "b", "c"})
		case 1:
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = rng.Int63n(100)
			}
			return nulls(storage.ViewVec(types.KindTime, xs, nil, nil, nil))
		}
		return value([]string{"float", "int"}[rng.Intn(2)], n)
	}
	key := func(n int) Vec {
		if rng.Intn(2) == 0 {
			codes := make([]uint32, n)
			for i := range codes {
				codes[i] = uint32(rng.Intn(5))
			}
			return storage.FoRVec(types.KindInt64, int64(rng.Intn(3))-1, codes)
		}
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(6)) - 1
		}
		return storage.ViewVec(types.KindInt64, xs, nil, nil, nil)
	}

	for trial := 0; trial < 400; trial++ {
		family := []string{"float", "negzero", "int", "mixed"}[trial%4]
		groupBy := [][]int{nil, {0}}[trial/4%2]
		var batches []*Batch
		for range 2 + rng.Intn(5) {
			n := 1 + rng.Intn(40)
			var sel []int32
			if rng.Intn(2) == 0 {
				sel = []int32{}
				for i := range n {
					if rng.Intn(3) > 0 {
						sel = append(sel, int32(i))
					}
				}
			}
			batches = append(batches, vecBatch(n, sel, key(n), value(family, n)))
		}
		name := fmt.Sprintf("trial %d (%s, groupBy %v)", trial, family, groupBy)
		boxed := func(bs []*Batch) *Aggregator {
			a := NewAggregator(groupBy, specs)
			for _, b := range bs {
				b.Selected(func(r int) bool {
					a.Observe(b.Row(r, nil))
					return true
				})
			}
			return a
		}
		typed := func(bs []*Batch) *Aggregator {
			a := NewAggregator(groupBy, specs)
			for _, b := range bs {
				a.ObserveBatch(b)
			}
			return a
		}
		sameBitsRel(t, name, typed(batches).Rel(nil), boxed(batches).Rel(nil))

		h := len(batches) / 2
		t1, t2, b1, b2 := typed(batches[:h]), typed(batches[h:]), boxed(batches[:h]), boxed(batches[h:])
		if got, want := t1.PartialBytes(), b1.PartialBytes(); got != want {
			t.Fatalf("%s: typed share PartialBytes %d, boxed %d", name, got, want)
		}
		merged := func(x, y *Aggregator) Rel {
			c := NewAggregator(groupBy, specs)
			c.MergeFrom(x)
			c.MergeFrom(y)
			return c.Rel(nil)
		}
		want := merged(b1, b2)
		sameBitsRel(t, name+" typed+typed", merged(t1, t2), want)
		sameBitsRel(t, name+" typed+boxed", merged(t1, b2), want)
		sameBitsRel(t, name+" boxed+typed", merged(b1, t2), want)
	}
}

// TestTypedStateKinds pins which state a column keeps: typed while its
// inputs are one numeric kind, no column at all before any value, and
// boxed once two kinds meet or Observe folds a row.
func TestTypedStateKinds(t *testing.T) {
	spec := []AggSpec{{Func: AggSum, Col: 0}}
	ints := storage.ViewVec(types.KindInt64, []int64{1, 2}, nil, nil, nil)
	floats := storage.ViewVec(types.KindFloat64, nil, []float64{0.5, 1}, nil, nil)
	for _, tc := range []struct {
		name string
		feed func(a *Aggregator)
		want stateKind
	}{
		{"none", func(*Aggregator) {}, stateNone},
		{"int", func(a *Aggregator) { a.ObserveBatch(vecBatch(2, nil, ints)) }, stateInt},
		{"for", func(a *Aggregator) {
			a.ObserveBatch(vecBatch(2, nil, storage.FoRVec(types.KindInt64, 5, []uint32{1, 2})))
		}, stateInt},
		{"float", func(a *Aggregator) { a.ObserveBatch(vecBatch(2, nil, floats)) }, stateFloat},
		{"int-then-float", func(a *Aggregator) {
			a.ObserveBatch(vecBatch(2, nil, ints))
			a.ObserveBatch(vecBatch(2, nil, floats))
		}, stateBoxed},
		{"observe", func(a *Aggregator) { a.Observe([]types.Value{types.NewInt64(1)}) }, stateBoxed},
	} {
		a := NewAggregator(nil, spec)
		tc.feed(a)
		c := &a.cols[0]
		if c.kind != tc.want {
			t.Errorf("%s: state kind %d, want %d", tc.name, c.kind, tc.want)
		}
		// The one column the kind names, and no other.
		cols := []bool{c.ints != nil, c.flts != nil, c.vals != nil}
		if want := []bool{tc.want == stateInt, tc.want == stateFloat, tc.want == stateBoxed}; !slices.Equal(cols, want) {
			t.Errorf("%s: columns (ints, flts, vals) allocated %v, want %v", tc.name, cols, want)
		}
	}
}
