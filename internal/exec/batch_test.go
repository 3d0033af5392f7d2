package exec

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"proteus/internal/colstore"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// randBatch builds a batch of ncols columns: col0 int group key with few
// distinct values, col1 int, col2 float, col3 string; an optional selection
// vector keeps a random subset.
func randBatch(r *rand.Rand, rows int, withSel bool) *Batch {
	b := storage.GetBatch(4)
	vals := make([]types.Value, 4)
	for i := 0; i < rows; i++ {
		vals[0] = types.NewInt64(int64(r.Intn(4)))
		vals[1] = types.NewInt64(int64(r.Intn(100) - 50))
		vals[2] = types.NewFloat64(float64(r.Intn(1000)) / 8)
		vals[3] = types.NewString([]string{"x", "y", "z"}[r.Intn(3)])
		b.AppendRow(schema.RowID(i), vals)
	}
	if withSel {
		var sel []int32
		for i := 0; i < rows; i++ {
			if r.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		b.Sel = sel
	}
	return b
}

// vecBatch assembles a batch from column vectors of n rows.
func vecBatch(n int, sel []int32, vecs ...Vec) *Batch {
	b := &Batch{Vecs: vecs, Sel: sel}
	b.SetRowIDsView(make([]schema.RowID, n))
	return b
}

// refAggregate is the row-at-a-time aggregate the group-by table is held
// to: groups found by a linear scan over the groups so far, keys compared
// with types.Equal and never hashed, each group labelled by its first
// row's key. COUNT counts every row; every other aggregate skips NULL
// inputs, so COUNT(col) counts, and AVG divides by, the non-NULL ones.
func refAggregate(tuples [][]types.Value, groupBy []int, specs []AggSpec) [][]types.Value {
	type group struct {
		key  []types.Value
		acc  []types.Value
		rows int64
		vals []int64 // per spec: non-NULL inputs
	}
	var groups []*group
	find := func(t []types.Value) *group {
	next:
		for _, g := range groups {
			for k, c := range groupBy {
				if !types.Equal(g.key[k], t[c]) {
					continue next
				}
			}
			return g
		}
		g := &group{acc: make([]types.Value, len(specs)), vals: make([]int64, len(specs))}
		for _, c := range groupBy {
			g.key = append(g.key, t[c])
		}
		groups = append(groups, g)
		return g
	}
	if len(groupBy) == 0 {
		find(nil)
	}
	for _, t := range tuples {
		g := find(t)
		g.rows++
		for i, sp := range specs {
			if sp.Func == AggCount || t[sp.Col].IsNull() {
				continue
			}
			g.vals[i]++
			v, cur := t[sp.Col], g.acc[i]
			switch sp.Func {
			case AggCountCol:
				// counted above
			case AggMin:
				if cur.IsNull() || types.Compare(v, cur) < 0 {
					g.acc[i] = v
				}
			case AggMax:
				if cur.IsNull() || types.Compare(v, cur) > 0 {
					g.acc[i] = v
				}
			default:
				g.acc[i] = types.Add(cur, v)
			}
		}
	}
	out := make([][]types.Value, len(groups))
	for gi, g := range groups {
		row := append([]types.Value(nil), g.key...)
		for i, sp := range specs {
			switch {
			case sp.Func == AggCount:
				row = append(row, types.NewInt64(g.rows))
			case sp.Func == AggCountCol:
				row = append(row, types.NewInt64(g.vals[i]))
			case sp.Func == AggAvg && g.vals[i] > 0:
				row = append(row, types.NewFloat64(g.acc[i].Float()/float64(g.vals[i])))
			default:
				row = append(row, g.acc[i])
			}
		}
		out[gi] = row
	}
	return out
}

// sameTuples requires got to equal want row for row, value kinds included
// (a group's label is its first-seen key, kind and all), floats within a
// relative 1e-9: the batch folds sum each batch before adding it, so float
// association differs from the row-at-a-time sum.
func sameTuples(t *testing.T, name string, got, want [][]types.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", name, len(got), len(want))
	}
	for i := range want {
		for k := range want[i] {
			g, w := got[i][k], want[i][k]
			switch {
			case g.K != w.K:
				t.Fatalf("%s row %d col %d: %v (kind %v), want %v (kind %v)", name, i, k, g, g.K, w, w.K)
			case g.K == types.KindFloat64:
				if d := math.Abs(g.F - w.F); d > 1e-9*math.Max(1, math.Abs(w.F)) {
					t.Fatalf("%s row %d col %d: %v, want %v", name, i, k, g, w)
				}
			case types.Compare(g, w) != 0:
				t.Fatalf("%s row %d col %d: %v, want %v", name, i, k, g, w)
			}
		}
	}
}

// checkAggregate feeds the batches to Observe tuple by tuple, to
// ObserveBatch, and to two aggregators merged with MergeFrom (the first
// half of the batches in one, the rest in the other), and holds all three
// to refAggregate over the same tuples — group order included, so a merge
// must append the groups new to it in the other side's order.
func checkAggregate(t *testing.T, groupBy []int, specs []AggSpec, batches []*Batch) {
	t.Helper()
	var tuples [][]types.Value
	rowAgg, batchAgg := NewAggregator(groupBy, specs), NewAggregator(groupBy, specs)
	halves := [2]*Aggregator{NewAggregator(groupBy, specs), NewAggregator(groupBy, specs)}
	for bi, b := range batches {
		b.Selected(func(row int) bool {
			tuple := b.Row(row, nil)
			rowAgg.Observe(tuple)
			tuples = append(tuples, tuple)
			return true
		})
		batchAgg.ObserveBatch(b)
		halves[2*bi/len(batches)].ObserveBatch(b)
	}
	halves[0].MergeFrom(halves[1])
	want := refAggregate(tuples, groupBy, specs)
	sameTuples(t, "Observe", rowAgg.Rel(nil).Tuples, want)
	sameTuples(t, "ObserveBatch", batchAgg.Rel(nil).Tuples, want)
	sameTuples(t, "MergeFrom", halves[0].Rel(nil).Tuples, want)
}

// TestObserveBatchMatchesObserve holds the group-by table's three entry
// points — Observe, ObserveBatch and MergeFrom — to the reference
// aggregate: grouped and ungrouped, with and without a selection vector,
// on every key shape the key contract covers.
func TestObserveBatchMatchesObserve(t *testing.T) {
	specs := []AggSpec{
		{Func: AggSum, Col: 1}, {Func: AggCount}, {Func: AggMin, Col: 2},
		{Func: AggMax, Col: 2}, {Func: AggAvg, Col: 1}, {Func: AggSum, Col: 2},
		{Func: AggMin, Col: 3}, {Func: AggMax, Col: 3},
	}
	for _, tc := range []struct {
		name    string
		groupBy []int
		withSel bool
	}{
		{"global", nil, false},
		{"global-sel", nil, true},
		{"grouped", []int{0}, false},
		{"grouped-sel", []int{0}, true},
		{"two-column", []int{0, 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(17))
			var batches []*Batch
			for bi := 0; bi < 5; bi++ {
				batches = append(batches, randBatch(r, 100+bi, tc.withSel))
			}
			checkAggregate(t, tc.groupBy, specs, batches)
			for _, b := range batches {
				storage.PutBatch(b)
			}
		})
	}

	// The key shapes below group [key, int value] batches.
	valSpecs := []AggSpec{{Func: AggSum, Col: 1}, {Func: AggCount}, {Func: AggMin, Col: 1}, {Func: AggMax, Col: 1}, {Func: AggAvg, Col: 1}}
	ints := func(xs ...int64) Vec { return storage.ViewVec(types.KindInt64, xs, nil, nil, nil) }
	t.Run("null-keys", func(t *testing.T) {
		// NULL keys form one group, typed and boxed rows alike.
		keys := ints(1, 0, 2, 0, 1)
		keys.Null = []bool{false, true, false, true, false}
		checkAggregate(t, []int{0}, valSpecs, []*Batch{
			vecBatch(5, nil, keys, ints(10, 20, 30, 40, 50)),
			vecBatch(3, nil, ints(2, 1, 7), ints(1, 2, 3)),
			vecBatch(5, []int32{1, 3}, keys, ints(5, 6, 7, 8, 9)),
		})
	})
	t.Run("int-float-keys", func(t *testing.T) {
		// 1 and 1.0 are one group, labelled by whichever came first:
		// integral floats key typed, a batch holding 2.5 keys boxed.
		floats := func(xs ...float64) Vec { return storage.ViewVec(types.KindFloat64, nil, xs, nil, nil) }
		checkAggregate(t, []int{0}, valSpecs, []*Batch{
			vecBatch(2, nil, floats(2, 1), ints(1, 2)),
			vecBatch(3, nil, ints(1, 2, 5), ints(3, 4, 5)),
			vecBatch(3, nil, floats(1, 2.5, 5), ints(6, 7, 8)),
			vecBatch(2, nil, ints(-3, 5), ints(9, 10)),
		})
	})
	t.Run("time-bool-keys", func(t *testing.T) {
		ts := func(xs ...int64) Vec { return storage.ViewVec(types.KindTime, xs, nil, nil, nil) }
		bools := func(xs ...int64) Vec { return storage.ViewVec(types.KindBool, xs, nil, nil, nil) }
		checkAggregate(t, []int{0, 2}, valSpecs, []*Batch{
			vecBatch(4, nil, ts(1, 2, 1, 3), ints(1, 2, 3, 4), bools(0, 1, 0, 1)),
			vecBatch(4, nil, ts(3, 3, 2, 1), ints(5, 6, 7, 8), bools(1, 1, 1, 1)),
			vecBatch(3, nil, ts(time.Hour.Microseconds(), 1, 2), ints(9, 10, 11), bools(0, 0, 1)),
		})
	})
	t.Run("encoded-keys", func(t *testing.T) {
		// Plain, FoR, RLE and dictionary key vectors in one aggregator:
		// equal values meet in one group whatever vector carried them.
		strs := func(xs ...string) Vec { return storage.ViewVec(types.KindString, nil, nil, xs, nil) }
		checkAggregate(t, []int{0}, valSpecs, []*Batch{
			vecBatch(4, nil, ints(7, 8, 9, 7), ints(1, 2, 3, 4)),
			vecBatch(4, nil, storage.FoRVec(types.KindInt64, 6, []uint32{3, 1, 0, 2}), ints(5, 6, 7, 8)),
			vecBatch(6, []int32{0, 2, 5}, storage.RunsVec(types.KindInt64, []int64{9, 10}, nil, nil, []uint32{3, 6}), ints(9, 10, 11, 12, 13, 14)),
			vecBatch(4, nil, storage.DictVec([]uint32{1, 0, 1, 2}, []string{"a", "b", "c"}), ints(15, 16, 17, 18)),
			vecBatch(3, nil, strs("c", "d", "a"), ints(19, 20, 21)),
			vecBatch(3, []int32{2}, storage.FoRVec(types.KindInt64, 100, []uint32{0, 1, 2}), ints(22, 23, 24)),
		})
	})
	t.Run("empty-global", func(t *testing.T) {
		checkAggregate(t, nil, valSpecs, nil)
	})
}

// TestMinMaxSkipNull pins that a NULL input leaves MIN and MAX alone on
// every path into the table: tuple by tuple, a batch vector carrying
// NULLs, and a merge whose receiving side saw a NULL.
func TestMinMaxSkipNull(t *testing.T) {
	specs := []AggSpec{{Func: AggMin, Col: 0}, {Func: AggMax, Col: 0}}
	five, seven := []types.Value{types.NewInt64(5)}, []types.Value{types.NewInt64(7)}
	null := []types.Value{types.Null()}
	check := func(name string, a *Aggregator) {
		t.Helper()
		row := a.Rel(nil).Tuples[0]
		if row[0].Int() != 5 || row[1].Int() != 7 {
			t.Errorf("%s: MIN, MAX over [5, NULL, 7] = %v, %v; want 5, 7", name, row[0], row[1])
		}
	}

	obs := NewAggregator(nil, specs)
	obs.Observe(five)
	obs.Observe(null)
	obs.Observe(seven)
	check("Observe", obs)

	col := storage.ViewVec(types.KindInt64, []int64{5, 0, 7}, nil, nil, []bool{false, true, false})
	batch := NewAggregator(nil, specs)
	batch.ObserveBatch(vecBatch(3, nil, col))
	check("ObserveBatch", batch)

	merged, other := NewAggregator(nil, specs), NewAggregator(nil, specs)
	merged.Observe(five)
	merged.Observe(null)
	other.Observe(seven)
	merged.MergeFrom(other)
	check("MergeFrom", merged)
}

// TestAvgSkipsNull pins that AVG and COUNT(col) count only the non-NULL
// inputs, and COUNT every row, on every path into the table: tuple by
// tuple, a plain batch vector carrying NULLs (ungrouped and grouped), an
// RLE column holding a NULL run as a column store scans it, and a merge
// whose receiving side saw a NULL.
func TestAvgSkipsNull(t *testing.T) {
	specs := []AggSpec{{Func: AggAvg, Col: 0}, {Func: AggCountCol, Col: 0}, {Func: AggCount}}
	check := func(name string, a *Aggregator, avg float64, nonNull, rows int64) {
		t.Helper()
		rel := a.Rel(nil)
		if len(rel.Tuples) != 1 {
			t.Fatalf("%s: %d groups, want 1", name, len(rel.Tuples))
		}
		row := rel.Tuples[0]
		got := row[len(row)-3:]
		if got[0].Float() != avg || got[1].Int() != nonNull || got[2].Int() != rows {
			t.Errorf("%s: AVG, COUNT(col), COUNT = %v, %v, %v; want %v, %d, %d", name, got[0], got[1], got[2], avg, nonNull, rows)
		}
	}
	// Tuples are [value, key]; the grouped aggregators group by the
	// constant key.
	five := []types.Value{types.NewInt64(5), types.NewInt64(1)}
	null := []types.Value{types.Null(), types.NewInt64(1)}
	seven := []types.Value{types.NewInt64(7), types.NewInt64(1)}
	for _, groupBy := range [][]int{nil, {1}} {
		name := "global"
		if groupBy != nil {
			name = "grouped"
		}
		obs := NewAggregator(groupBy, specs)
		obs.Observe(five)
		obs.Observe(null)
		obs.Observe(seven)
		check(name+"/Observe", obs, 6, 2, 3)

		vals := storage.ViewVec(types.KindInt64, []int64{5, 0, 7}, nil, nil, []bool{false, true, false})
		keys := storage.ViewVec(types.KindInt64, []int64{1, 1, 1}, nil, nil, nil)
		batch := NewAggregator(groupBy, specs)
		batch.ObserveBatch(vecBatch(3, nil, vals, keys))
		check(name+"/ObserveBatch", batch, 6, 2, 3)
		sel := NewAggregator(groupBy, specs)
		sel.ObserveBatch(vecBatch(3, []int32{1, 2}, vals, keys))
		check(name+"/ObserveBatch-sel", sel, 7, 1, 2)

		// An RLE column of runs 5×2, NULL×3, 7×3: the NULL-bearing chunk
		// reaches the table expanded, its NULL bitmap set.
		rle := colstore.NewMem([]types.Kind{types.KindInt64, types.KindInt64}, storage.NoSort, true)
		var rows []schema.Row
		for i, v := range []types.Value{types.NewInt64(5), types.NewInt64(5), types.Null(), types.Null(), types.Null(), types.NewInt64(7), types.NewInt64(7), types.NewInt64(7)} {
			rows = append(rows, schema.Row{ID: schema.RowID(i), Vals: []types.Value{v, types.NewInt64(1)}})
		}
		img, err := storage.ImageOf([]types.Kind{types.KindInt64, types.KindInt64}, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := rle.LoadImage(img, 1); err != nil {
			t.Fatal(err)
		}
		if rle.Stats().EncodedBytes == 0 {
			t.Fatal("fixture column is not encoded")
		}
		runs := NewAggregator(groupBy, specs)
		rle.ScanBatches([]schema.ColID{0, 1}, nil, storage.MinRow, storage.MaxRow, storage.Latest, 0, func(b *Batch) bool {
			runs.ObserveBatch(b)
			return true
		})
		check(name+"/ObserveBatch-rle", runs, 31.0/5, 5, 8)

		merged, other := NewAggregator(groupBy, specs), NewAggregator(groupBy, specs)
		merged.Observe(five)
		merged.Observe(null)
		other.Observe(seven)
		merged.MergeFrom(other)
		check(name+"/MergeFrom", merged, 6, 2, 3)
	}
}

// TestGroupByAllocsFlat runs an aggregate's whole pipeline — two scan
// workers' partials over 4 096 rows in 256-row batches, merged into their
// site's share, the share merged into the coordinator's accumulator and
// finished to a Rel — at 20 and at 2 000 groups. A group owns no
// allocation, so a hundred times the groups may cost at most twice the
// allocations (the table's and the columns' doublings).
func TestGroupByAllocsFlat(t *testing.T) {
	const rows = 4096
	specs := []AggSpec{{Func: AggCount}, {Func: AggSum, Col: 1}, {Func: AggMin, Col: 1}}
	allocs := func(groups int) float64 {
		keys, vals := make([]int64, rows), make([]int64, rows)
		for i := range keys {
			keys[i], vals[i] = int64(i%groups), int64(i)
		}
		var parts [2][]*Batch
		for lo := 0; lo < rows; lo += storage.DefaultBatchRows {
			hi := lo + storage.DefaultBatchRows
			b := vecBatch(hi-lo, nil, storage.ViewVec(types.KindInt64, keys[lo:hi], nil, nil, nil),
				storage.ViewVec(types.KindInt64, vals[lo:hi], nil, nil, nil))
			parts[2*lo/rows] = append(parts[2*lo/rows], b)
		}
		var out Rel
		n := testing.AllocsPerRun(20, func() {
			w0, w1 := NewAggregator([]int{0}, specs), NewAggregator([]int{0}, specs)
			for _, b := range parts[0] {
				w0.ObserveBatch(b)
			}
			for _, b := range parts[1] {
				w1.ObserveBatch(b)
			}
			w0.MergeFrom(w1)
			coord := NewAggregator([]int{0}, specs)
			coord.MergeFrom(w0)
			out = coord.Rel([]string{"k", "v"})
		})
		if out.NumRows() != groups {
			t.Fatalf("%d groups out, want %d", out.NumRows(), groups)
		}
		return n
	}
	few, many := allocs(20), allocs(2000)
	t.Logf("allocations: %.0f at 20 groups, %.0f at 2000", few, many)
	if many > 2*few {
		t.Errorf("2000 groups allocate %.0f, over twice the %.0f of 20 groups", many, few)
	}
}

// TestObserveBatchEmpty pins the edge cases: an empty batch and a batch
// whose selection vector is empty contribute nothing.
func TestObserveBatchEmpty(t *testing.T) {
	specs := []AggSpec{{Func: AggSum, Col: 1}, {Func: AggCount}}
	a := NewAggregator(nil, specs)
	b := storage.GetBatch(2)
	a.ObserveBatch(b)
	b.AppendRow(1, []types.Value{types.NewInt64(1), types.NewInt64(2)})
	b.Sel = []int32{}
	a.ObserveBatch(b)
	storage.PutBatch(b)
	rel := a.Rel(nil)
	if len(rel.Tuples) != 1 || rel.Tuples[0][1].Int() != 0 {
		t.Fatalf("rel = %+v", rel.Tuples)
	}
	if !rel.Tuples[0][0].IsNull() {
		t.Fatalf("sum over zero rows = %v, want NULL", rel.Tuples[0][0])
	}
}
