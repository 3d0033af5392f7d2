package partition

import (
	"testing"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// changeLayoutAllocs counts the allocations of one column-to-column layout
// change (plain → value-sorted compressed) over n rows of fixed-width
// columns, each run converting a partition of its own.
func changeLayoutAllocs(t *testing.T, n int) float64 {
	t.Helper()
	const runs = 3
	ks := []types.Kind{types.KindInt64, types.KindFloat64, types.KindTime}
	to := storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 0, Compressed: true}
	f := factory()
	parts := make([]*Partition, runs+1) // AllocsPerRun adds a warm-up run
	for i := range parts {
		b := Bounds{Table: 1, RowEnd: schema.RowID(n), ColEnd: schema.ColID(len(ks))}
		parts[i] = New(ID(i), b, ks, storage.DefaultColumnLayout(), f)
		rows := make([]schema.Row, n)
		for id := range rows {
			rows[id] = schema.Row{ID: schema.RowID(id), Vals: []types.Value{
				types.NewInt64(int64(n - id)), types.NewFloat64(float64(id % 97)), types.NewTimeMicros(int64(id / 10)),
			}}
		}
		if err := parts[i].Load(rows, 1); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	return testing.AllocsPerRun(runs, func() {
		if err := parts[next].ChangeLayout(to, f, storage.Latest); err != nil {
			t.Fatal(err)
		}
		next++
	})
}

// TestChangeLayoutAllocBudget: a layout change moves the partition as one
// typed image, so ten times the rows costs (nearly) no more allocations —
// none per row.
func TestChangeLayoutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not held under -race")
	}
	small, large := changeLayoutAllocs(t, 1_000), changeLayoutAllocs(t, 10_000)
	t.Logf("allocations per layout change: %.0f at 10^3 rows, %.0f at 10^4", small, large)
	if large > small+64 {
		t.Errorf("10^4 rows took %.0f allocations, 10^3 rows %.0f: more than 64 apart", large, small)
	}
	const budget = 102 // 93 measured at 10^4 rows, plus 10 %
	if large > budget {
		t.Errorf("10^4 rows took %.0f allocations, budget %d", large, budget)
	}
}
