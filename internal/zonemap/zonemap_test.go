package zonemap

import (
	"testing"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

func observed() *ZoneMap {
	z := New(2)
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
	z := New(1)
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
