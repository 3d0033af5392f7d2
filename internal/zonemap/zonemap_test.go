package zonemap

import (
	"math"
	"testing"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

func observed() *ZoneMap {
	z := New([]types.Kind{types.KindInt64, types.KindString})
	for i := int64(10); i <= 20; i++ {
		z.Observe([]types.Value{types.NewInt64(i), types.NewString("m")})
	}
	return z
}

func TestRange(t *testing.T) {
	z := observed()
	lo, hi, ok := z.Range(0)
	if !ok || lo.Int() != 10 || hi.Int() != 20 {
		t.Errorf("range = [%v, %v] %v", lo, hi, ok)
	}
	if _, _, ok := z.Range(5); ok {
		t.Error("out-of-range column has a range")
	}
	if z.Rows() != 11 {
		t.Errorf("rows = %d", z.Rows())
	}
}

func TestCanSkip(t *testing.T) {
	z := observed()
	cases := []struct {
		pred storage.Pred
		skip bool
	}{
		{storage.Pred{{Col: 0, Op: storage.CmpGt, Val: types.NewInt64(25)}}, true},
		{storage.Pred{{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(21)}}, true},
		{storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(10)}}, true},
		{storage.Pred{{Col: 0, Op: storage.CmpEq, Val: types.NewInt64(5)}}, true},
		{storage.Pred{{Col: 0, Op: storage.CmpEq, Val: types.NewInt64(15)}}, false},
		{storage.Pred{{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(20)}}, false},
		{storage.Pred{{Col: 1, Op: storage.CmpEq, Val: types.NewString("m")}}, false},
		{storage.Pred{{Col: 1, Op: storage.CmpEq, Val: types.NewString("z")}}, true},
		{nil, false},
	}
	for i, c := range cases {
		if got := z.CanSkip(c.pred); got != c.skip {
			t.Errorf("case %d: CanSkip = %v, want %v", i, got, c.skip)
		}
	}
}

func TestCanSkipUnknownColumn(t *testing.T) {
	z := New([]types.Kind{types.KindInt64})
	// Nothing observed: never skip.
	if z.CanSkip(storage.Pred{{Col: 0, Op: storage.CmpEq, Val: types.NewInt64(1)}}) {
		t.Error("empty zone map skipped")
	}
}

func TestEstimateSelectivity(t *testing.T) {
	z := observed() // col0 uniform over [10, 20]
	sel := z.EstimateSelectivity(storage.Pred{{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(15)}})
	if sel < 0.4 || sel > 0.6 {
		t.Errorf("sel >= 15 = %f, want ~0.5", sel)
	}
	sel = z.EstimateSelectivity(storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(10)}})
	if sel != 0 {
		t.Errorf("sel < min = %f", sel)
	}
	sel = z.EstimateSelectivity(nil)
	if sel != 1 {
		t.Errorf("empty pred sel = %f", sel)
	}
	// Conjunction multiplies.
	sel = z.EstimateSelectivity(storage.Pred{
		{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(15)},
		{Col: 0, Op: storage.CmpLe, Val: types.NewInt64(15)},
	})
	if sel >= 0.5 {
		t.Errorf("conjunction sel = %f, want < 0.5", sel)
	}
}

func TestRebuild(t *testing.T) {
	z := observed()
	img, err := storage.ImageOf([]types.Kind{types.KindInt64, types.KindString}, []schema.Row{
		{ID: 1, Vals: []types.Value{types.NewInt64(100), types.NewString("a")}},
		{ID: 2, Vals: []types.Value{types.NewInt64(200), types.NewString("b")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	z.Rebuild(img)
	lo, hi, ok := z.Range(0)
	if !ok || lo.Int() != 100 || hi.Int() != 200 {
		t.Errorf("post-rebuild range = [%v, %v]", lo, hi)
	}
	if z.Rows() != 2 {
		t.Errorf("rows = %d", z.Rows())
	}
}

// column returns a zone map over one column of kind k that observed vals,
// and the store vector those values scan as.
func column(k types.Kind, vals ...types.Value) (*ZoneMap, *storage.Vec) {
	z := New([]types.Kind{k})
	v := &storage.Vec{Kind: k}
	for _, x := range vals {
		z.Observe([]types.Value{x})
		v.Append(x)
	}
	return z, v
}

// TestDropImplied checks which conjuncts the zone map proves for every row
// and, for each one it drops, that FilterVec keeps every row of the column
// it observed: dropping a conjunct never changes what a scan returns.
func TestDropImplied(t *testing.T) {
	i, f, s := types.NewInt64, types.NewFloat64, types.NewString
	tm := types.NewTimeMicros
	cond := func(op storage.CmpOp, v types.Value) storage.Cond { return storage.Cond{Op: op, Val: v} }
	ints := []types.Value{i(10), i(14), i(20)}
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		kind types.Kind
		vals []types.Value
		c    storage.Cond
		drop bool
	}{
		{"int >= min", types.KindInt64, ints, cond(storage.CmpGe, i(10)), true},
		{"int >= min+1", types.KindInt64, ints, cond(storage.CmpGe, i(11)), false},
		{"int <= max", types.KindInt64, ints, cond(storage.CmpLe, i(20)), true},
		{"int < max", types.KindInt64, ints, cond(storage.CmpLt, i(20)), false},
		{"int < max+1", types.KindInt64, ints, cond(storage.CmpLt, i(21)), true},
		{"int > min-1", types.KindInt64, ints, cond(storage.CmpGt, i(9)), true},
		{"int > min", types.KindInt64, ints, cond(storage.CmpGt, i(10)), false},
		{"int = inside", types.KindInt64, ints, cond(storage.CmpEq, i(14)), false},
		{"int = the only value", types.KindInt64, []types.Value{i(7), i(7)}, cond(storage.CmpEq, i(7)), true},
		{"int <> outside", types.KindInt64, ints, cond(storage.CmpNe, i(21)), true},
		{"int <> inside", types.KindInt64, ints, cond(storage.CmpNe, i(14)), false},
		{"int >= float below", types.KindInt64, ints, cond(storage.CmpGe, f(9.5)), true},
		{"int >= float inside", types.KindInt64, ints, cond(storage.CmpGe, f(10.5)), false},
		{"int < float above", types.KindInt64, ints, cond(storage.CmpLt, f(20.5)), true},
		{"int <= integral float", types.KindInt64, ints, cond(storage.CmpLe, f(20)), true},
		{"int = float", types.KindInt64, []types.Value{i(7)}, cond(storage.CmpEq, f(7)), true},
		// A NaN constant compares equal to every number, in the zone map
		// and in FilterVec alike.
		{"int <= NaN", types.KindInt64, ints, cond(storage.CmpLe, f(nan)), true},
		{"int < NaN", types.KindInt64, ints, cond(storage.CmpLt, f(nan)), false},
		{"int <> NaN", types.KindInt64, ints, cond(storage.CmpNe, f(nan)), false},
		{"int with NULL", types.KindInt64, []types.Value{i(10), types.Null(), i(20)}, cond(storage.CmpGe, i(0)), false},
		{"float >= min", types.KindFloat64, []types.Value{f(1.5), f(3)}, cond(storage.CmpGe, f(1.5)), true},
		{"float >= int", types.KindFloat64, []types.Value{f(1.5), f(3)}, cond(storage.CmpGe, i(1)), true},
		{"float > int inside", types.KindFloat64, []types.Value{f(1.5), f(3)}, cond(storage.CmpGt, i(2)), false},
		{"float with NaN", types.KindFloat64, []types.Value{f(1), f(nan), f(3)}, cond(storage.CmpGe, f(0)), false},
		{"float with NaN first", types.KindFloat64, []types.Value{f(nan), f(1), f(3)}, cond(storage.CmpLt, f(5)), false},
		{"float in an int column", types.KindInt64, []types.Value{i(3), f(2.5)}, cond(storage.CmpGe, f(2.5)), false},
		{"time >= min", types.KindTime, []types.Value{tm(100), tm(300)}, cond(storage.CmpGe, tm(100)), true},
		{"time < max", types.KindTime, []types.Value{tm(100), tm(300)}, cond(storage.CmpLt, tm(300)), false},
		{"time <= int above", types.KindTime, []types.Value{tm(100), tm(300)}, cond(storage.CmpLe, i(301)), true},
		{"string >= min", types.KindString, []types.Value{s("b"), s("m"), s("x")}, cond(storage.CmpGe, s("b")), true},
		{"string > min", types.KindString, []types.Value{s("b"), s("m"), s("x")}, cond(storage.CmpGt, s("b")), false},
		{"string < above", types.KindString, []types.Value{s("b"), s("m"), s("x")}, cond(storage.CmpLt, s("xa")), true},
		{"string < max", types.KindString, []types.Value{s("b"), s("m"), s("x")}, cond(storage.CmpLt, s("x")), false},
		{"string with NULL", types.KindString, []types.Value{s("b"), types.Null()}, cond(storage.CmpGe, s("a")), false},
		{"NULL constant", types.KindInt64, ints, cond(storage.CmpNe, types.Null()), false},
		{"nothing observed", types.KindInt64, nil, cond(storage.CmpGe, i(0)), false},
	} {
		z, v := column(tc.kind, tc.vals...)
		pred := storage.Pred{tc.c, {Col: 3, Op: storage.CmpEq, Val: i(1)}} // col 3: no information
		got := z.DropImplied(pred)
		if dropped := len(got) == 1; dropped != tc.drop {
			t.Errorf("%s: dropped = %v, want %v", tc.name, dropped, tc.drop)
		}
		if got[len(got)-1].Col != 3 {
			t.Errorf("%s: the uninformed conjunct was dropped", tc.name)
		}
		if len(got) == 1 {
			if kept := storage.FilterVec(nil, nil, v.Len(), v, tc.c.Op, tc.c.Val); len(kept) != v.Len() {
				t.Errorf("%s: dropped, but FilterVec keeps %d of %d rows", tc.name, len(kept), v.Len())
			}
		}
	}
}

// TestDropImpliedInPlace checks that DropImplied reuses the predicate's
// array and allocates nothing.
func TestDropImpliedInPlace(t *testing.T) {
	z := observed()
	pred := storage.Pred{
		{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(0)},
		{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(15)},
		{Col: 1, Op: storage.CmpEq, Val: types.NewString("m")},
	}
	got := z.DropImplied(pred)
	if len(got) != 1 || &got[0] != &pred[0] || got[0].Op != storage.CmpLt {
		t.Fatalf("DropImplied = %v, want [the < conjunct] in pred's array", got)
	}
	if n := testing.AllocsPerRun(100, func() { z.DropImplied(pred[:3]) }); n != 0 {
		t.Errorf("DropImplied allocates %.0f times", n)
	}
}

// TestNaNStaysOutOfRange checks that a NaN never becomes a bound, and that
// a column holding one is never pruned on: under types.Compare a NaN
// equals every number, so it satisfies = c, <= c and >= c for any c.
func TestNaNStaysOutOfRange(t *testing.T) {
	z, v := column(types.KindFloat64, types.NewFloat64(math.NaN()), types.NewFloat64(1), types.NewFloat64(5))
	if lo, hi, ok := z.Range(0); !ok || lo.F != 1 || hi.F != 5 {
		t.Errorf("range = [%v, %v] %v, want [1, 5]", lo, hi, ok)
	}
	c := storage.Cond{Op: storage.CmpEq, Val: types.NewFloat64(100)}
	if kept := storage.FilterVec(nil, nil, v.Len(), v, c.Op, c.Val); len(kept) != 1 {
		t.Fatalf("FilterVec keeps %d rows for = 100, want the NaN", len(kept))
	}
	if z.CanSkip(storage.Pred{c}) {
		t.Error("a NaN-bearing column skipped on = 100")
	}
}

// TestRebuildRecordsNull rebuilds a zone map from an image that holds a
// NULL: a conjunct covering the range is no longer implied, as it was
// before the rebuild.
func TestRebuildRecordsNull(t *testing.T) {
	z := observed()
	pred := func() storage.Pred {
		return storage.Pred{{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(0)}}
	}
	if got := z.DropImplied(pred()); len(got) != 0 {
		t.Fatalf("before the rebuild: %v kept", got)
	}
	img, err := storage.ImageOf([]types.Kind{types.KindInt64, types.KindString}, []schema.Row{
		{ID: 1, Vals: []types.Value{types.NewInt64(100), types.NewString("a")}},
		{ID: 2, Vals: []types.Value{types.Null(), types.NewString("b")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	z.Rebuild(img)
	if got := z.DropImplied(pred()); len(got) != 1 {
		t.Errorf("after rebuilding over a NULL: %v, want the conjunct kept", got)
	}
	if lo, hi, ok := z.Range(0); !ok || lo.Int() != 100 || hi.Int() != 100 {
		t.Errorf("post-rebuild range = [%v, %v] %v", lo, hi, ok)
	}
}
