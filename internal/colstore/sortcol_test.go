package colstore

// Tests for the value-sorted disk store's resident sort column: range
// scans narrowed by binary search over it answer as a plain store does, and
// loading keeps it typed, so it costs no boxed copy per row.

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"proteus/internal/disksim"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// sortKeyRows builds 60 rows whose column 0, of kind k, holds key(i / 4):
// every value four times, so every range edge falls among duplicates. Row
// 17's key is NULL. Column 1 is the row's id as a payload.
func sortKeyRows(k types.Kind) []schema.Row {
	key := func(i int64) types.Value {
		switch k {
		case types.KindFloat64:
			return types.NewFloat64(float64(i) + 0.5)
		case types.KindString:
			return types.NewString(string(rune('a' + i)))
		case types.KindTime:
			return types.Value{K: types.KindTime, I: i * int64(time.Second)}
		}
		return types.NewInt64(i * 10)
	}
	rows := make([]schema.Row, 60)
	for i := range rows {
		// Loaded out of key order: ids ascend while keys descend.
		v := key(int64(14 - i/4))
		if i == 17 {
			v = types.Null()
		}
		rows[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{v, types.NewInt64(int64(i))}}
	}
	return rows
}

func TestSortedDiskRangeScansMatchPlain(t *testing.T) {
	for _, k := range []types.Kind{types.KindInt64, types.KindFloat64, types.KindString, types.KindTime} {
		kinds := []types.Kind{k, types.KindInt64}
		rows := sortKeyRows(k)
		plain := NewMem(kinds, storage.NoSort, false)
		if err := load(plain, kinds, rows, 1); err != nil {
			t.Fatal(err)
		}
		dev := disksim.New(disksim.Config{})
		for _, compressed := range []bool{false, true} {
			sorted := NewDisk(kinds, dev, 0, compressed)
			if err := load(sorted, kinds, rows, 1); err != nil {
				t.Fatal(err)
			}
			// Edges on duplicated keys (rows 8..11 and 40..43), one on the
			// NULL's neighbours, and one past every key.
			lo, hi, null := rows[40].Vals[0], rows[8].Vals[0], rows[16].Vals[0]
			var preds []storage.Pred
			for _, op := range []storage.CmpOp{storage.CmpEq, storage.CmpLt, storage.CmpLe, storage.CmpGt, storage.CmpGe, storage.CmpNe} {
				preds = append(preds, storage.Pred{{Col: 0, Op: op, Val: lo}}, storage.Pred{{Col: 0, Op: op, Val: null}})
			}
			preds = append(preds,
				storage.Pred{{Col: 0, Op: storage.CmpGe, Val: lo}, {Col: 0, Op: storage.CmpLe, Val: hi}},
				storage.Pred{{Col: 0, Op: storage.CmpGt, Val: lo}, {Col: 0, Op: storage.CmpLt, Val: hi}},
				storage.Pred{{Col: 0, Op: storage.CmpGt, Val: rows[0].Vals[0]}},
				nil)
			for _, pred := range preds {
				for _, ids := range [][2]schema.RowID{{storage.MinRow, storage.MaxRow}, {9, 42}, {17, 18}, {30, 30}} {
					want := rangeIDs(plain, pred, ids[0], ids[1])
					if got := rangeIDs(sorted, pred, ids[0], ids[1]); !slices.Equal(got, want) {
						t.Errorf("%v compressed=%v pred %v ids [%d,%d): sorted disk read %v, plain %v",
							k, compressed, pred, ids[0], ids[1], got, want)
					}
				}
			}
		}
	}
}

// rangeIDs is the ascending ids a ranged scan of s returns.
func rangeIDs(s storage.Store, pred storage.Pred, lo, hi schema.RowID) []schema.RowID {
	var ids []schema.RowID
	s.ScanBatches([]schema.ColID{0, 1}, pred, lo, hi, storage.Latest, 7, func(b *storage.Batch) bool {
		b.Selected(func(r int) bool {
			ids = append(ids, b.RowIDs[r])
			return true
		})
		return true
	})
	slices.Sort(ids)
	return ids
}

// sortedLoadCost is what one LoadImage of n rows into a value-sorted disk
// store allocates: objects (testing.AllocsPerRun) and bytes (averaged over
// the same runs).
func sortedLoadCost(t *testing.T, n int) (allocs, bytes float64) {
	t.Helper()
	kinds := []types.Kind{types.KindInt64, types.KindFloat64}
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{types.NewInt64(int64(n - i)), types.NewFloat64(float64(i))}}
	}
	img, err := storage.ImageOf(kinds, rows)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDisk(kinds, disksim.New(disksim.Config{}), 0, false)
	loadImg := func() {
		if err := d.LoadImage(img, 1); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs = testing.AllocsPerRun(runs, loadImg)
	runtime.ReadMemStats(&m1)
	return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
}

// TestSortedDiskLoadAllocBudget: loading keeps the sort column typed, so a
// value-sorted disk load allocates no object per row, and the bytes each
// further row costs include no boxed copy of its key (40 B per row before).
func TestSortedDiskLoadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not held under -race")
	}
	smallN, largeN := 1_000, 10_000
	smallA, smallB := sortedLoadCost(t, smallN)
	largeA, largeB := sortedLoadCost(t, largeN)
	perRow := (largeB - smallB) / float64(largeN-smallN)
	t.Logf("sorted disk LoadImage: %.0f allocations at 10^3 rows, %.0f at 10^4; %.0f bytes per further row", smallA, largeA, perRow)
	const allocBudget = 153 // 139 measured at 10^4 rows, plus 10 %
	if largeA > allocBudget {
		t.Errorf("10^4 rows took %.0f allocations, budget %d", largeA, allocBudget)
	}
	if largeA > smallA+float64(largeN-smallN)/100 {
		t.Errorf("allocations grow with rows: %.0f at 10^3, %.0f at 10^4", smallA, largeA)
	}
	const byteBudget = 256 // 240 measured, the boxed sort column 280
	if perRow > byteBudget {
		t.Errorf("each further row cost %.0f bytes, budget %d", perRow, byteBudget)
	}
}
