package partition

import (
	"fmt"
	"testing"

	"proteus/internal/disksim"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

var kinds = []types.Kind{types.KindInt64, types.KindFloat64, types.KindString}

func factory() Factory { return Factory{Dev: disksim.New(disksim.Config{})} }

func bounds() Bounds {
	return Bounds{Table: 1, RowStart: 0, RowEnd: 100, ColStart: 0, ColEnd: 3}
}

func row(id int64) schema.Row {
	return schema.Row{ID: schema.RowID(id), Vals: []types.Value{
		types.NewInt64(id), types.NewFloat64(float64(id) * 1.5), types.NewString("v"),
	}}
}

func loaded(t *testing.T, l storage.Layout, n int64) *Partition {
	t.Helper()
	p := New(1, bounds(), kinds, l, factory())
	rows := make([]schema.Row, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, row(i))
	}
	if err := p.Load(rows, 1); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBoundsHelpers(t *testing.T) {
	b := bounds()
	if !b.ContainsRow(0) || !b.ContainsRow(99) || b.ContainsRow(100) {
		t.Error("ContainsRow wrong")
	}
	if !b.ContainsCol(2) || b.ContainsCol(3) {
		t.Error("ContainsCol wrong")
	}
	if !b.OverlapsRows(90, 200) || b.OverlapsRows(100, 200) {
		t.Error("OverlapsRows wrong")
	}
	if b.NumCols() != 3 || b.NumRows() != 100 {
		t.Error("sizes wrong")
	}
	b2 := Bounds{ColStart: 2, ColEnd: 5}
	if b2.LocalCol(3) != 1 || b2.GlobalCol(1) != 3 {
		t.Error("col translation wrong")
	}
}

func TestInsertOutsideBounds(t *testing.T) {
	p := New(1, bounds(), kinds, storage.DefaultRowLayout(), factory())
	if err := p.Insert(row(100), 1); err == nil {
		t.Error("insert outside bounds allowed")
	}
}

func TestCrudThroughPartition(t *testing.T) {
	p := loaded(t, storage.DefaultRowLayout(), 10)
	if err := p.Update(3, []schema.ColID{1}, []types.Value{types.NewFloat64(-9)}, 2); err != nil {
		t.Fatal(err)
	}
	r, ok := p.Get(3, []schema.ColID{1}, storage.Latest)
	if !ok || r.Vals[0].Float() != -9 {
		t.Errorf("get after update: %v", r)
	}
	if err := p.Delete(9, 3); err != nil {
		t.Fatal(err)
	}
	if n := len(collectBatches(p, []schema.ColID{0}, nil, storage.Latest, 0)); n != 9 {
		t.Errorf("scan rows = %d", n)
	}
}

func TestZoneMapSkip(t *testing.T) {
	p := loaded(t, storage.DefaultColumnLayout(), 50) // col0 in [0,49]
	pred := storage.Pred{{Col: 0, Op: storage.CmpGt, Val: types.NewInt64(1000)}}
	if n := len(collectBatches(p, []schema.ColID{0}, pred, storage.Latest, 0)); n != 0 {
		t.Errorf("zone-map skip failed, saw %d rows", n)
	}
	if !p.ZoneMap().CanSkip(pred) {
		t.Error("CanSkip should be true")
	}
}

func TestChangeLayoutAllCombinations(t *testing.T) {
	f := factory()
	layouts := []storage.Layout{
		{Format: storage.RowFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort},
		{Format: storage.RowFormat, Tier: storage.DiskTier, SortBy: storage.NoSort},
		{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort},
		{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 0},
		{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 1, Compressed: true},
		{Format: storage.ColumnFormat, Tier: storage.DiskTier, SortBy: storage.NoSort, Compressed: true},
	}
	p := loaded(t, layouts[0], 20)
	for _, to := range layouts[1:] {
		if err := p.ChangeLayout(to, f, storage.Latest); err != nil {
			t.Fatalf("convert to %v: %v", to, err)
		}
		if got := p.Layout(); got != to {
			t.Errorf("layout = %v, want %v", got, to)
		}
		rows := p.ExtractAll(storage.Latest)
		if len(rows) != 20 {
			t.Fatalf("after %v: %d rows", to, len(rows))
		}
		for i, r := range rows {
			if r.ID != schema.RowID(i) || r.Vals[0].Int() != int64(i) {
				t.Fatalf("after %v: row %d = %v", to, i, r)
			}
		}
	}
	// The fixture, pending writes and NULLs included, converts between
	// every pair of layouts cell for cell.
	for _, from := range fixtureLayouts {
		for _, to := range fixtureLayouts {
			p := fixture(t, from)
			want := cellsOf(p)
			if err := p.ChangeLayout(to, f, storage.Latest); err != nil {
				t.Fatalf("fixture %v -> %v: %v", from, to, err)
			}
			ctx := fmt.Sprintf("fixture %v -> %v", from, to)
			sameCells(t, ctx, cellsOf(p), want, storage.MinRow, storage.MaxRow, 0, len(fixtureKinds))
			if st := p.Stats(); st.DeltaRows != 0 || st.Rows != len(want) {
				t.Errorf("%s: %d rows, %d delta rows", ctx, st.Rows, st.DeltaRows)
			}
		}
	}
}

func TestVersionMonotone(t *testing.T) {
	p := New(1, bounds(), kinds, storage.DefaultRowLayout(), factory())
	p.SetVersion(5)
	p.SetVersion(3) // must not regress
	if v := p.Version(); v != 5 {
		t.Errorf("version = %d", v)
	}
	if v := p.NextVersion(); v != 6 {
		t.Errorf("next = %d", v)
	}
}

func TestSplitHorizontal(t *testing.T) {
	p := loaded(t, storage.DefaultRowLayout(), 50)
	lo, hi, err := SplitHorizontal(p, 30, [2]ID{2, 3}, storage.DefaultColumnLayout(), factory(), storage.Latest)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Bounds.RowEnd != 30 || hi.Bounds.RowStart != 30 {
		t.Errorf("bounds: %v / %v", lo.Bounds, hi.Bounds)
	}
	if n := len(lo.ExtractAll(storage.Latest)); n != 30 {
		t.Errorf("lo rows = %d", n)
	}
	if n := len(hi.ExtractAll(storage.Latest)); n != 20 {
		t.Errorf("hi rows = %d", n)
	}
	if _, _, err := SplitHorizontal(p, 0, [2]ID{4, 5}, storage.DefaultRowLayout(), factory(), storage.Latest); err == nil {
		t.Error("split at boundary allowed")
	}
	for _, l := range fixtureLayouts {
		fp := fixture(t, l)
		want := cellsOf(fp)
		lo, hi, err := SplitHorizontal(fp, 20, [2]ID{2, 3}, l, factory(), storage.Latest)
		if err != nil {
			t.Fatal(err)
		}
		sameCells(t, fmt.Sprintf("fixture %v lower", l), cellsOf(lo), want, 0, 20, 0, len(fixtureKinds))
		sameCells(t, fmt.Sprintf("fixture %v upper", l), cellsOf(hi), want, 20, 100, 0, len(fixtureKinds))
	}
}

func TestSplitVerticalAndMergeVertical(t *testing.T) {
	f := factory()
	p := loaded(t, storage.DefaultRowLayout(), 10)
	l, r, err := SplitVertical(p, 2, [2]ID{2, 3}, storage.DefaultColumnLayout(), storage.DefaultRowLayout(), f, storage.Latest)
	if err != nil {
		t.Fatal(err)
	}
	if l.Bounds.NumCols() != 2 || r.Bounds.NumCols() != 1 {
		t.Errorf("col splits: %v / %v", l.Bounds, r.Bounds)
	}
	rr, ok := r.Get(4, []schema.ColID{0}, storage.Latest)
	if !ok || rr.Vals[0].Str() != "v" {
		t.Errorf("right child read: %v %v", rr, ok)
	}
	// Merge back.
	m, err := MergeVertical(l, r, 9, storage.DefaultRowLayout(), f, storage.Latest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Bounds.NumCols() != 3 {
		t.Errorf("merged bounds: %v", m.Bounds)
	}
	row4, ok := m.Get(4, []schema.ColID{0, 1, 2}, storage.Latest)
	if !ok || row4.Vals[0].Int() != 4 || row4.Vals[2].Str() != "v" {
		t.Errorf("merged read: %v", row4)
	}
	for i, l := range fixtureLayouts {
		fp := fixture(t, l)
		want := cellsOf(fp)
		other := fixtureLayouts[(i+3)%len(fixtureLayouts)]
		ll, lr := l, other
		if ll.SortBy >= 2 {
			ll.SortBy = storage.NoSort // the left child has two columns
		}
		if lr.SortBy != storage.NoSort {
			lr.SortBy-- // child-local
		}
		left, right, err := SplitVertical(fp, 2, [2]ID{2, 3}, ll, lr, f, storage.Latest)
		if err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("fixture %v split into %v | %v", l, ll, lr)
		sameCells(t, ctx+" left", cellsOf(left), want, storage.MinRow, storage.MaxRow, 0, 2)
		sameCells(t, ctx+" right", cellsOf(right), want, storage.MinRow, storage.MaxRow, 2, 3)
		m, err := MergeVertical(right, left, 9, other, f, storage.Latest)
		if err != nil {
			t.Fatal(err)
		}
		sameCells(t, ctx+" merged", cellsOf(m), want, storage.MinRow, storage.MaxRow, 0, len(fixtureKinds))
	}
	// Children that hold different rows do not merge.
	a := New(10, Bounds{Table: 1, RowEnd: 100, ColEnd: 1}, kinds[:1], storage.DefaultRowLayout(), f)
	b := New(11, Bounds{Table: 1, RowEnd: 100, ColStart: 1, ColEnd: 3}, kinds[1:], storage.DefaultRowLayout(), f)
	if err := a.Load([]schema.Row{{ID: 1, Vals: []types.Value{types.NewInt64(1)}}}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeVertical(a, b, 12, storage.DefaultRowLayout(), f, storage.Latest); err == nil {
		t.Error("merge of children with different rows allowed")
	}
}

func TestMergeHorizontal(t *testing.T) {
	f := factory()
	p := loaded(t, storage.DefaultRowLayout(), 50)
	lo, hi, err := SplitHorizontal(p, 25, [2]ID{2, 3}, storage.DefaultRowLayout(), f, storage.Latest)
	if err != nil {
		t.Fatal(err)
	}
	// Merge in either argument order.
	m, err := MergeHorizontal(hi, lo, 4, storage.DefaultColumnLayout(), f, storage.Latest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Bounds.RowStart != 0 || m.Bounds.RowEnd != 100 {
		t.Errorf("merged bounds: %v", m.Bounds)
	}
	if n := len(m.ExtractAll(storage.Latest)); n != 50 {
		t.Errorf("merged rows = %d", n)
	}
	// Non-adjacent merge fails.
	a := New(10, Bounds{Table: 1, RowStart: 0, RowEnd: 10, ColEnd: 3}, kinds, storage.DefaultRowLayout(), f)
	b := New(11, Bounds{Table: 1, RowStart: 20, RowEnd: 30, ColEnd: 3}, kinds, storage.DefaultRowLayout(), f)
	if _, err := MergeHorizontal(a, b, 12, storage.DefaultRowLayout(), f, storage.Latest); err == nil {
		t.Error("non-adjacent merge allowed")
	}
	for i, l := range fixtureLayouts {
		fp := fixture(t, l)
		want := cellsOf(fp)
		lo, hi, err := SplitHorizontal(fp, 20, [2]ID{2, 3}, l, f, storage.Latest)
		if err != nil {
			t.Fatal(err)
		}
		to := fixtureLayouts[(i+3)%len(fixtureLayouts)]
		m, err := MergeHorizontal(hi, lo, 4, to, f, storage.Latest)
		if err != nil {
			t.Fatal(err)
		}
		sameCells(t, fmt.Sprintf("fixture %v merged into %v", l, to), cellsOf(m), want, storage.MinRow, storage.MaxRow, 0, len(fixtureKinds))
	}
}

func TestMaintainMergesDelta(t *testing.T) {
	p := loaded(t, storage.DefaultColumnLayout(), 10)
	for i := int64(0); i < 5; i++ {
		if err := p.Update(schema.RowID(i), []schema.ColID{0}, []types.Value{types.NewInt64(-i)}, 2); err != nil {
			t.Fatal(err)
		}
	}
	if p.Stats().DeltaRows != 5 {
		t.Fatalf("delta rows = %d", p.Stats().DeltaRows)
	}
	merged, d, err := p.Maintain(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 5 || d < 0 {
		t.Errorf("maintain reported merged=%d d=%v", merged, d)
	}
	if p.Stats().DeltaRows != 0 {
		t.Errorf("delta rows after maintain = %d", p.Stats().DeltaRows)
	}
	for _, l := range fixtureLayouts[1:] { // every layout that buffers writes
		fp := fixture(t, l)
		want := cellsOf(fp)
		pending := fp.Stats().DeltaRows
		merged, _, err := fp.Maintain(storage.Latest, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pending == 0 || merged != pending || fp.Stats().DeltaRows != 0 {
			t.Errorf("fixture %v: %d pending, maintain folded %d, %d left", l, pending, merged, fp.Stats().DeltaRows)
		}
		sameCells(t, fmt.Sprintf("fixture %v maintained", l), cellsOf(fp), want, storage.MinRow, storage.MaxRow, 0, len(fixtureKinds))
	}
}
