package exec

import (
	"slices"
	"testing"

	"proteus/internal/types"
)

// TestRouteRowsKeepsEveryPossibleMatch: a build row is routed when its key
// falls in one of the ranges as the join compares keys — 1 and 1.0 alike,
// a Time by its instant — and a NULL key goes nowhere.
func TestRouteRowsKeepsEveryPossibleMatch(t *testing.T) {
	ranges := MergeRanges([]KeyRange{
		{Lo: types.NewInt64(20), Hi: types.NewInt64(29)},
		{Lo: types.NewInt64(0), Hi: types.NewInt64(9)},
		{Lo: types.NewInt64(5), Hi: types.NewInt64(12)}, // overlaps [0, 9]
	})
	if want := []KeyRange{{types.NewInt64(0), types.NewInt64(12)}, {types.NewInt64(20), types.NewInt64(29)}}; !slices.Equal(ranges, want) {
		t.Fatalf("merged ranges %v, want %v", ranges, want)
	}
	for _, tc := range []struct {
		name string
		keys []types.Value
		want []int32
	}{
		{"ints", []types.Value{types.NewInt64(-1), types.NewInt64(0), types.NewInt64(12), types.NewInt64(13),
			types.NewInt64(19), types.NewInt64(20), types.NewInt64(29), types.NewInt64(30)}, []int32{1, 2, 5, 6}},
		{"floats against int ranges", []types.Value{types.NewFloat64(1), types.NewFloat64(12.5), types.NewFloat64(20),
			types.NewFloat64(-0.5)}, []int32{0, 2}},
		{"NULLs", []types.Value{types.Null(), types.NewInt64(3), types.Null()}, []int32{1}},
		{"times", []types.Value{{K: types.KindTime, I: 21}, {K: types.KindTime, I: 15}}, []int32{0}},
	} {
		c := NewColRel([]string{"k"})
		for _, k := range tc.keys {
			c.Vecs[0].Append(k)
		}
		c.SetRows(len(tc.keys))
		if got := RouteRows(&c, 0, ranges, nil); !slices.Equal(got, tc.want) {
			t.Errorf("%s: routed rows %v, want %v", tc.name, got, tc.want)
		}
	}
	strs := []KeyRange{{Lo: types.NewString("b"), Hi: types.NewString("d")}}
	c := ColRelFromRel(Rel{Cols: []string{"k"}, Tuples: [][]types.Value{
		{types.NewString("a")}, {types.NewString("b")}, {types.NewString("cz")}, {types.NewString("da")}}})
	if got := RouteRows(&c, 0, strs, nil); !slices.Equal(got, []int32{1, 2}) {
		t.Errorf("strings: routed rows %v, want [1 2]", got)
	}
}

// TestWidenUnionsBounds: bounds widened by several relations are those of
// their union, with no Bloom bits, and a relation of NULL keys alone adds
// nothing.
func TestWidenUnionsBounds(t *testing.T) {
	rel := func(vals ...types.Value) *ColRel {
		c := NewColRel([]string{"k"})
		for _, v := range vals {
			c.Vecs[0].Append(v)
		}
		c.SetRows(len(vals))
		return &c
	}
	var f RuntimeFilter
	if f.BoundsPred(0) != nil {
		t.Fatal("the zero filter has bounds")
	}
	f.Widen(rel(types.NewInt64(5), types.NewInt64(9)), 0)
	f.Widen(rel(types.Null()), 0)
	f.Widen(rel(), 0)
	f.Widen(rel(types.NewInt64(-3), types.Null(), types.NewInt64(7)), 0)
	p := f.BoundsPred(0)
	if len(p) != 2 || p[0].Val.I != -3 || p[1].Val.I != 9 {
		t.Errorf("bounds %v, want [-3, 9]", p)
	}
	if f.bits != nil || !f.TestValue(types.NewInt64(100)) {
		t.Error("widened bounds carry Bloom bits")
	}
}
