package colstore

// Tests for the disk store's typed fixed-width blocks: point reads and
// scans of plain int64, time, float64 and bool columns holding NULLs agree
// with the memory store, and a full disk scan allocates per column block,
// not per row.

import (
	"reflect"
	"testing"

	"proteus/internal/disksim"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

var fixedKinds = []types.Kind{types.KindInt64, types.KindTime, types.KindFloat64, types.KindBool}

// fixedRows builds n rows over fixedKinds with a NULL in every column at
// its own stride, so each block carries a NULL bitmap.
func fixedRows(n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		x := int64(i)
		vals := []types.Value{
			types.NewInt64(x*7919 - 1<<40),
			types.NewTimeMicros(1_700_000_000_000_000 + x*13),
			types.NewFloat64(float64(x) * -0.5),
			types.NewBool(x%3 == 0),
		}
		for c := range vals {
			if i%(c+3) == 1 {
				vals[c] = types.Null()
			}
		}
		rows[i] = schema.Row{ID: schema.RowID(i), Vals: vals}
	}
	return rows
}

// TestDiskFixedWidthMatchesMem: an uncompressed disk store of fixed-width
// columns with NULLs answers every Get and a full scan exactly as the
// memory store loaded from the same rows does.
func TestDiskFixedWidthMatchesMem(t *testing.T) {
	const n = 1000
	rows := fixedRows(n)
	for _, sortBy := range []schema.ColID{storage.NoSort, 1} {
		mem := NewMem(fixedKinds, sortBy, false)
		dsk := NewDisk(fixedKinds, disksim.New(disksim.Config{}), sortBy, false)
		for _, s := range []storage.Store{mem, dsk} {
			if err := load(s, fixedKinds, rows, 1); err != nil {
				t.Fatal(err)
			}
		}
		for ci := range dsk.gen.meta {
			if m := &dsk.gen.meta[ci]; m.enc != encPlain || m.width == 0 || m.nullBits == nil {
				t.Fatalf("sortBy %d column %d: enc %v width %d, NULL bitmap %v; want a plain fixed-width block with NULLs",
					sortBy, ci, m.enc, m.width, m.nullBits != nil)
			}
		}
		all := []schema.ColID{0, 1, 2, 3}
		for id := schema.RowID(0); id < n; id++ {
			got, ok1 := dsk.Get(id, all, storage.Latest)
			want, ok2 := mem.Get(id, all, storage.Latest)
			if !ok1 || !ok2 || !reflect.DeepEqual(got, want) {
				t.Fatalf("sortBy %d row %d: disk %v/%v, mem %v/%v", sortBy, id, got, ok1, want, ok2)
			}
		}
		got, want := scanAll(dsk, all, nil, storage.Latest, 0), scanAll(mem, all, nil, storage.Latest, 0)
		if len(got) != n || !reflect.DeepEqual(got, want) {
			t.Fatalf("sortBy %d: disk scan %d rows, mem %d rows, or they differ", sortBy, len(got), len(want))
		}
		pred := storage.Pred{{Col: 3, Op: storage.CmpEq, Val: types.NewBool(true)}}
		got, want = scanAll(dsk, []schema.ColID{0, 2}, pred, storage.Latest, 0), scanAll(mem, []schema.ColID{0, 2}, pred, storage.Latest, 0)
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("sortBy %d: filtered disk scan %d rows, mem %d rows, or they differ", sortBy, len(got), len(want))
		}
	}
}

// diskScanAllocs counts the allocations of one full scan of an
// uncompressed n-row disk store over three fixed-width columns.
func diskScanAllocs(t *testing.T, n int) float64 {
	t.Helper()
	kinds := []types.Kind{types.KindInt64, types.KindFloat64, types.KindTime}
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(int64(n - i)), types.NewFloat64(float64(i % 97)), types.NewTimeMicros(int64(i / 10)),
		}}
	}
	d := NewDisk(kinds, disksim.New(disksim.Config{}), storage.NoSort, false)
	if err := load(d, kinds, rows, 1); err != nil {
		t.Fatal(err)
	}
	cols := []schema.ColID{0, 1, 2}
	seen := 0
	count := func(b *storage.Batch) bool {
		seen += b.NumRows()
		return true
	}
	allocs := testing.AllocsPerRun(10, func() {
		d.ScanBatches(cols, nil, storage.MinRow, storage.MaxRow, storage.Latest, 0, count)
	})
	if seen != 11*n { // AllocsPerRun warms up once
		t.Fatalf("scans saw %d rows, want %d", seen, 11*n)
	}
	return allocs
}

// TestDiskScanAllocBudget: a disk scan decodes each column block into one
// typed array, so a full scan allocates per column, not per row.
func TestDiskScanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not held under -race")
	}
	small, large := diskScanAllocs(t, 5_000), diskScanAllocs(t, 50_000)
	t.Logf("allocations per full disk scan: %.0f at 5·10^3 rows, %.0f at 5·10^4", small, large)
	if large > small+2 {
		t.Errorf("5·10^4 rows took %.0f allocations, 5·10^3 rows %.0f: more than 2 apart", large, small)
	}
	const budget = 8 // 7 measured at 5·10^4 rows, plus 10 % (14 while each block was copied and its values offset-indexed)
	if large > budget {
		t.Errorf("5·10^4 rows took %.0f allocations, budget %d", large, budget)
	}
}
