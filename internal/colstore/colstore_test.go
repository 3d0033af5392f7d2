package colstore

import (
	"fmt"
	"testing"
	"testing/quick"

	"proteus/internal/disksim"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

var testKinds = []types.Kind{types.KindInt64, types.KindString, types.KindFloat64}

func mkRow(id int64) schema.Row {
	return schema.Row{ID: schema.RowID(id), Vals: []types.Value{
		types.NewInt64(id * 10),
		types.NewString(fmt.Sprintf("str-%03d", id%7)),
		types.NewFloat64(float64(id) / 2),
	}}
}

// variants returns every column-store configuration behind the Store
// interface: memory/disk x plain/sorted/compressed.
func variants(t *testing.T) map[string]storage.Store {
	t.Helper()
	dev := disksim.New(disksim.Config{})
	return map[string]storage.Store{
		"mem":            NewMem(testKinds, storage.NoSort, false),
		"mem-sorted":     NewMem(testKinds, 1, false),
		"mem-rle":        NewMem(testKinds, storage.NoSort, true),
		"mem-sorted-rle": NewMem(testKinds, 1, true),
		"disk":           NewDisk(testKinds, dev, storage.NoSort, false),
		"disk-sorted":    NewDisk(testKinds, dev, 1, false),
		"disk-rle":       NewDisk(testKinds, dev, storage.NoSort, true),
	}
}

func loadN(t *testing.T, s storage.Store, n int64) {
	t.Helper()
	rows := make([]schema.Row, 0, n)
	for i := int64(1); i <= n; i++ {
		rows = append(rows, mkRow(i))
	}
	if err := load(s, testKinds, rows, 1); err != nil {
		t.Fatal(err)
	}
}

func TestLoadGet(t *testing.T) {
	for name, s := range variants(t) {
		t.Run(name, func(t *testing.T) {
			loadN(t, s, 20)
			r, ok := s.Get(7, []schema.ColID{0, 1, 2}, storage.Latest)
			if !ok {
				t.Fatal("row 7 missing")
			}
			if r.Vals[0].Int() != 70 || r.Vals[1].Str() != "str-000" || r.Vals[2].Float() != 3.5 {
				t.Errorf("got %v", r.Vals)
			}
			if _, ok := s.Get(999, []schema.ColID{0}, storage.Latest); ok {
				t.Error("found nonexistent row")
			}
		})
	}
}

// TestGetNullCell: a point read returns a NULL cell as NULL on every
// variant — on disk too, where a NULL is a zero-length value (plain) or a
// zero-length run (RLE), the last run included.
func TestGetNullCell(t *testing.T) {
	for name, s := range variants(t) {
		t.Run(name, func(t *testing.T) {
			var rows []schema.Row
			for i := int64(1); i <= 20; i++ {
				r := mkRow(i)
				if i == 7 || i == 20 {
					r.Vals = []types.Value{types.Null(), types.Null(), types.Null()}
				}
				rows = append(rows, r)
			}
			if err := load(s, testKinds, rows, 1); err != nil {
				t.Fatal(err)
			}
			for _, id := range []schema.RowID{7, 20} {
				r, ok := s.Get(id, []schema.ColID{0, 1, 2}, storage.Latest)
				if !ok || !r.Vals[0].IsNull() || !r.Vals[1].IsNull() || !r.Vals[2].IsNull() {
					t.Errorf("row %d: %v, %v; want three NULLs", id, r.Vals, ok)
				}
			}
			if r, _ := s.Get(8, []schema.ColID{0, 1, 2}, storage.Latest); r.Vals[0].Int() != 80 || r.Vals[1].Str() != "str-001" {
				t.Errorf("row 8 beside the NULLs: %v", r.Vals)
			}
		})
	}
}

func TestInsertIntoDelta(t *testing.T) {
	for name, s := range variants(t) {
		t.Run(name, func(t *testing.T) {
			loadN(t, s, 5)
			if err := s.Insert(mkRow(100), 2); err != nil {
				t.Fatal(err)
			}
			if err := s.Insert(mkRow(100), 3); err == nil {
				t.Error("duplicate insert allowed")
			}
			if err := s.Insert(mkRow(3), 3); err == nil {
				t.Error("duplicate of base row allowed")
			}
			r, ok := s.Get(100, []schema.ColID{0}, storage.Latest)
			if !ok || r.Vals[0].Int() != 1000 {
				t.Errorf("delta read: %v %v", r, ok)
			}
			// Snapshot before the insert must not see it.
			if _, ok := s.Get(100, []schema.ColID{0}, 1); ok {
				t.Error("old snapshot sees new insert")
			}
		})
	}
}

func TestUpdateVersions(t *testing.T) {
	for name, s := range variants(t) {
		t.Run(name, func(t *testing.T) {
			loadN(t, s, 5)
			if err := s.Update(2, []schema.ColID{2}, []types.Value{types.NewFloat64(-1)}, 5); err != nil {
				t.Fatal(err)
			}
			r, _ := s.Get(2, []schema.ColID{2}, 4)
			if r.Vals[0].Float() != 1.0 {
				t.Errorf("old snapshot: %v", r.Vals)
			}
			r, _ = s.Get(2, []schema.ColID{0, 2}, 5)
			if r.Vals[0].Int() != 20 || r.Vals[1].Float() != -1 {
				t.Errorf("new snapshot: %v", r.Vals)
			}
			if err := s.Update(404, []schema.ColID{0}, []types.Value{types.NewInt64(0)}, 6); err == nil {
				t.Error("update of missing row allowed")
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for name, s := range variants(t) {
		t.Run(name, func(t *testing.T) {
			loadN(t, s, 5)
			if err := s.Delete(3, 7); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(3, []schema.ColID{0}, 6); !ok {
				t.Error("pre-delete snapshot lost the row")
			}
			if _, ok := s.Get(3, []schema.ColID{0}, 7); ok {
				t.Error("deleted row still visible")
			}
			if err := s.Delete(3, 8); err == nil {
				t.Error("double delete allowed")
			}
			if n := len(scanAll(s, []schema.ColID{0}, nil, storage.Latest, 0)); n != 4 {
				t.Errorf("scan saw %d rows, want 4", n)
			}
		})
	}
}

func TestScanPredicateProjection(t *testing.T) {
	for name, s := range variants(t) {
		t.Run(name, func(t *testing.T) {
			loadN(t, s, 50)
			pred := storage.Pred{
				{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(100)},
				{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(200)},
			}
			rows := scanAll(s, []schema.ColID{0}, pred, storage.Latest, 0)
			n, sum := len(rows), int64(0)
			for _, r := range rows {
				sum += r.Vals[0].Int()
			}
			// Rows 10..19 -> col0 = 100..190.
			if n != 10 || sum != 1450 {
				t.Errorf("scan n=%d sum=%d", n, sum)
			}
		})
	}
}

func TestScanMergesDelta(t *testing.T) {
	for name, s := range variants(t) {
		t.Run(name, func(t *testing.T) {
			loadN(t, s, 10)
			if err := s.Insert(mkRow(55), 2); err != nil {
				t.Fatal(err)
			}
			if err := s.Update(4, []schema.ColID{0}, []types.Value{types.NewInt64(-5)}, 3); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(9, 4); err != nil {
				t.Fatal(err)
			}
			got := map[schema.RowID]int64{}
			for _, r := range scanAll(s, []schema.ColID{0}, nil, storage.Latest, 0) {
				got[r.ID] = r.Vals[0].Int()
			}
			if len(got) != 10 {
				t.Fatalf("scan saw %d rows: %v", len(got), got)
			}
			if got[55] != 550 || got[4] != -5 {
				t.Errorf("delta rows wrong: %v", got)
			}
			if _, ok := got[9]; ok {
				t.Error("deleted row scanned")
			}
		})
	}
}

func TestSortedScanOrder(t *testing.T) {
	// Sorted by column 1 (string, values cycle mod 7).
	for _, name := range []string{"mem-sorted", "mem-sorted-rle", "disk-sorted"} {
		t.Run(name, func(t *testing.T) {
			s := variants(t)[name]
			loadN(t, s, 30)
			// Add delta rows that must interleave in sorted positions.
			if err := s.Insert(mkRow(101), 2); err != nil {
				t.Fatal(err)
			}
			rows := scanAll(s, []schema.ColID{1}, nil, storage.Latest, 0)
			for i := 1; i < len(rows); i++ {
				if prev := rows[i-1].Vals[0]; types.Compare(prev, rows[i].Vals[0]) > 0 {
					t.Errorf("out of order: %v after %v", rows[i].Vals[0], prev)
				}
			}
		})
	}
}

func TestSortedRangeNarrowing(t *testing.T) {
	s := NewMem(testKinds, 0, false) // sorted by col 0
	loadN(t, s, 1000)
	pred := storage.Pred{
		{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(5000)},
		{Col: 0, Op: storage.CmpLe, Val: types.NewInt64(5050)},
	}
	if n := len(scanAll(s, []schema.ColID{0}, pred, storage.Latest, 0)); n != 6 { // 5000,5010,...,5050
		t.Errorf("narrowed scan saw %d rows, want 6", n)
	}
}

func TestRLECompressionShrinks(t *testing.T) {
	rows := make([]schema.Row, 1000)
	for i := range rows {
		rows[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(int64(i / 100)), // long runs
			types.NewString("constant"),
			types.NewFloat64(1.0),
		}}
	}
	plain := NewMem(testKinds, storage.NoSort, false)
	rle := NewMem(testKinds, storage.NoSort, true)
	if err := load(plain, testKinds, rows, 1); err != nil {
		t.Fatal(err)
	}
	if err := load(rle, testKinds, rows, 1); err != nil {
		t.Fatal(err)
	}
	pb, rb := plain.Stats().Bytes, rle.Stats().Bytes
	if rb >= pb/2 {
		t.Errorf("RLE bytes %d not <50%% of plain %d", rb, pb)
	}
	// And reads agree.
	for _, id := range []schema.RowID{0, 99, 500, 999} {
		a, _ := plain.Get(id, []schema.ColID{0, 1, 2}, storage.Latest)
		b, _ := rle.Get(id, []schema.ColID{0, 1, 2}, storage.Latest)
		for i := range a.Vals {
			if !types.Equal(a.Vals[i], b.Vals[i]) {
				t.Errorf("row %d col %d: %v vs %v", id, i, a.Vals[i], b.Vals[i])
			}
		}
	}
}

func TestMergeDelta(t *testing.T) {
	dev := disksim.New(disksim.Config{})
	for name, s := range map[string]interface {
		storage.Store
		MergeDelta(uint64) error
		DeltaRows() int
	}{
		"mem":  NewMem(testKinds, storage.NoSort, false),
		"disk": NewDisk(testKinds, dev, storage.NoSort, false),
	} {
		t.Run(name, func(t *testing.T) {
			loadN(t, s, 10)
			if err := s.Update(5, []schema.ColID{0}, []types.Value{types.NewInt64(555)}, 2); err != nil {
				t.Fatal(err)
			}
			if err := s.Insert(mkRow(20), 3); err != nil {
				t.Fatal(err)
			}
			if s.DeltaRows() != 2 {
				t.Errorf("delta rows = %d", s.DeltaRows())
			}
			if err := s.MergeDelta(3); err != nil {
				t.Fatal(err)
			}
			if s.DeltaRows() != 0 {
				t.Errorf("delta rows after merge = %d", s.DeltaRows())
			}
			r, ok := s.Get(5, []schema.ColID{0}, storage.Latest)
			if !ok || r.Vals[0].Int() != 555 {
				t.Errorf("post-merge read: %v %v", r, ok)
			}
			if got := extract(s, testKinds, storage.Latest); len(got) != 11 {
				t.Errorf("rows after merge = %d", len(got))
			}
		})
	}
}

func TestExtractAllOrderedByRowID(t *testing.T) {
	for name, s := range variants(t) {
		t.Run(name, func(t *testing.T) {
			loadN(t, s, 15)
			out := extract(s, testKinds, storage.Latest)
			if len(out) != 15 {
				t.Fatalf("extracted %d", len(out))
			}
			for i := 1; i < len(out); i++ {
				if out[i-1].ID >= out[i].ID {
					t.Fatal("not ordered by RowID")
				}
			}
		})
	}
}

func TestStatsRows(t *testing.T) {
	for name, s := range variants(t) {
		t.Run(name, func(t *testing.T) {
			loadN(t, s, 8)
			if err := s.Delete(1, 2); err != nil {
				t.Fatal(err)
			}
			if err := s.Insert(mkRow(50), 3); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Rows != 8 {
				t.Errorf("Rows = %d, want 8", st.Rows)
			}
			if st.DeltaRows != 2 {
				t.Errorf("DeltaRows = %d, want 2", st.DeltaRows)
			}
		})
	}
}

func TestColDataRoundTripSerialize(t *testing.T) {
	vals := []types.Value{
		types.NewInt64(1), types.NewInt64(1), types.NewInt64(2),
		types.NewInt64(3), types.NewInt64(3), types.NewInt64(3),
	}
	for _, rle := range []bool{false, true} {
		c := buildCol(types.KindInt64, vecOf(types.KindInt64, vals), rle)
		got := deserializeCol(c.serialize())
		if got.n() != len(vals) {
			t.Fatalf("rle=%v n=%d", rle, got.n())
		}
		for p := range vals {
			if !types.Equal(got.get(p), vals[p]) {
				t.Errorf("rle=%v pos %d: %v", rle, p, got.get(p))
			}
		}
	}
}

// Property: scanning a random dataset with a random >= threshold returns
// exactly the matching rows, on every layout.
func TestScanMatchesNaiveProperty(t *testing.T) {
	dev := disksim.New(disksim.Config{})
	f := func(vals []int8, threshold int8) bool {
		rows := make([]schema.Row, len(vals))
		for i, v := range vals {
			rows[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{
				types.NewInt64(int64(v)), types.NewString("x"), types.NewFloat64(0),
			}}
		}
		want := 0
		for _, v := range vals {
			if int64(v) >= int64(threshold) {
				want++
			}
		}
		pred := storage.Pred{{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(int64(threshold))}}
		layouts := []storage.Store{
			NewMem(testKinds, storage.NoSort, false),
			NewMem(testKinds, 0, false),
			NewMem(testKinds, 0, true),
			NewDisk(testKinds, dev, storage.NoSort, true),
		}
		for _, s := range layouts {
			if err := load(s, testKinds, rows, 1); err != nil {
				return false
			}
			if got := len(scanAll(s, []schema.ColID{0}, pred, storage.Latest, 0)); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// load bulk-loads boxed rows through an image.
func load(s storage.Store, kinds []types.Kind, rows []schema.Row, ver uint64) error {
	img, err := storage.ImageOf(kinds, rows)
	if err != nil {
		return err
	}
	return s.LoadImage(img, ver)
}

// extract boxes every live row of s at ver, ordered by id.
func extract(s storage.Store, kinds []types.Kind, ver uint64) []schema.Row {
	return storage.Capture(s, kinds, ver).Rows()
}

// vecOf makes a plain vector of kind from boxed values.
func vecOf(kind types.Kind, vals []types.Value) *storage.Vec {
	v := storage.Vec{Kind: kind}
	for _, x := range vals {
		v.Append(x)
	}
	return &v
}
