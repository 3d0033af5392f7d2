package exec

import (
	"reflect"
	"testing"
	"testing/quick"

	"proteus/internal/cost"
	"proteus/internal/disksim"
	"proteus/internal/partition"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

func iv(vs ...int64) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.NewInt64(v)
	}
	return out
}

func rel(cols []string, tuples ...[]types.Value) Rel {
	return Rel{Cols: cols, Tuples: tuples}
}

func testPartition(t *testing.T, layout storage.Layout, n int64) *partition.Partition {
	t.Helper()
	f := partition.Factory{Dev: disksim.New(disksim.Config{})}
	// Partition covers columns 2..5 of a wider table.
	b := partition.Bounds{Table: 0, RowStart: 0, RowEnd: 10000, ColStart: 2, ColEnd: 5}
	kinds := []types.Kind{types.KindInt64, types.KindInt64, types.KindFloat64}
	p := partition.New(1, b, kinds, layout, f)
	rows := make([]schema.Row, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(i), types.NewInt64(i % 5), types.NewFloat64(float64(i) / 4),
		}})
	}
	if err := p.Load(rows, 1); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestScanGlobalColumnTranslation(t *testing.T) {
	p := testPartition(t, storage.DefaultColumnLayout(), 100)
	// Global col 3 = local col 1 (i%5); predicate on global col 2 (= i).
	pred := storage.Pred{{Col: 2, Op: storage.CmpLt, Val: types.NewInt64(10)}}
	r, obs, pushed := Scan(p, []schema.ColID{3}, pred, storage.Latest)
	if !pushed {
		t.Error("predicate should fully push down")
	}
	if r.NumRows() != 10 {
		t.Fatalf("rows = %d", r.NumRows())
	}
	if r.Tuples[7][0].Int() != 7%5 {
		t.Errorf("tuple = %v", r.Tuples[7])
	}
	if obs.Op != cost.OpScan || obs.Latency <= 0 {
		t.Errorf("obs = %+v", obs)
	}
}

func TestScanResidualPredicate(t *testing.T) {
	p := testPartition(t, storage.DefaultRowLayout(), 10)
	// Condition on global col 0, which this partition does not store.
	pred := storage.Pred{{Col: 0, Op: storage.CmpEq, Val: types.NewInt64(1)}}
	_, _, pushed := Scan(p, []schema.ColID{2}, pred, storage.Latest)
	if pushed {
		t.Error("predicate on uncovered column cannot push down")
	}
}

func TestPointReadAndWrites(t *testing.T) {
	p := testPartition(t, storage.DefaultRowLayout(), 10)
	r, ok, obs := PointRead(p, 5, []schema.ColID{2, 4}, storage.Latest)
	if !ok || r.Vals[0].Int() != 5 || r.Vals[1].Float() != 1.25 {
		t.Errorf("point read: %v %v", r, ok)
	}
	if obs.Op != cost.OpPointRead {
		t.Errorf("obs op = %v", obs.Op)
	}
	if _, err := Update(p, 5, []schema.ColID{3}, iv(99), 2); err != nil {
		t.Fatal(err)
	}
	r, _, _ = PointRead(p, 5, []schema.ColID{3}, storage.Latest)
	if r.Vals[0].Int() != 99 {
		t.Errorf("after update: %v", r.Vals)
	}
	if _, err := Insert(p, schema.Row{ID: 500, Vals: iv3(500, 0, 0)}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := Delete(p, 500, 4); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := PointRead(p, 500, []schema.ColID{2}, storage.Latest); ok {
		t.Error("deleted row readable")
	}
}

func iv3(a, b int64, f float64) []types.Value {
	return []types.Value{types.NewInt64(a), types.NewInt64(b), types.NewFloat64(f)}
}

func TestHashJoin(t *testing.T) {
	l := rel([]string{"a", "k"}, iv(1, 10), iv(2, 20), iv(3, 10))
	r := rel([]string{"k", "b"}, iv(10, 100), iv(30, 300))
	out, obs := HashJoin(l, r, []int{1}, []int{0})
	if out.NumRows() != 2 {
		t.Fatalf("join rows = %d", out.NumRows())
	}
	for _, tup := range out.Tuples {
		if tup[1].Int() != tup[2].Int() {
			t.Errorf("key mismatch: %v", tup)
		}
		if len(tup) != 4 {
			t.Errorf("tuple width: %v", tup)
		}
	}
	if obs.Variant != cost.JoinHash {
		t.Errorf("variant = %v", obs.Variant)
	}
}

func TestHashJoinBuildSideSwap(t *testing.T) {
	// l smaller than r: build on l. Column order must stay l-then-r.
	l := rel([]string{"k"}, iv(1))
	r := rel([]string{"k", "v"}, iv(1, 11), iv(1, 12), iv(2, 22))
	out, _ := HashJoin(l, r, []int{0}, []int{0})
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	for _, tup := range out.Tuples {
		if tup[0].Int() != 1 || tup[1].Int() != 1 {
			t.Errorf("column order broken: %v", tup)
		}
	}
}

func TestHashAggregate(t *testing.T) {
	r := rel([]string{"g", "v"}, iv(1, 10), iv(2, 5), iv(1, 20), iv(2, 7))
	out, obs := HashAggregate(r, []int{0}, []AggSpec{
		{Func: AggSum, Col: 1}, {Func: AggCount}, {Func: AggMin, Col: 1},
		{Func: AggMax, Col: 1}, {Func: AggAvg, Col: 1},
	})
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	byG := map[int64][]types.Value{}
	for _, tup := range out.Tuples {
		byG[tup[0].Int()] = tup
	}
	g1 := byG[1]
	if g1[1].Int() != 30 || g1[2].Int() != 2 || g1[3].Int() != 10 || g1[4].Int() != 20 || g1[5].Float() != 15 {
		t.Errorf("group 1 = %v", g1)
	}
	if obs.Variant != cost.AggHash {
		t.Errorf("variant = %v", obs.Variant)
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	out, _ := HashAggregate(Rel{}, nil, []AggSpec{{Func: AggCount}})
	if out.NumRows() != 1 || out.Tuples[0][0].Int() != 0 {
		t.Errorf("empty agg = %v", out.Tuples)
	}
}

func TestSortAndProjectAndFilter(t *testing.T) {
	r := rel([]string{"a", "b"}, iv(3, 30), iv(1, 10), iv(2, 20))
	s := SortBy(r, []int{0})
	if s.Tuples[0][0].Int() != 1 || s.Tuples[2][0].Int() != 3 {
		t.Errorf("sorted = %v", s.Tuples)
	}
	p := Project(s, []int{1})
	if len(p.Cols) != 1 || p.Cols[0] != "b" || p.Tuples[0][0].Int() != 10 {
		t.Errorf("projected = %v %v", p.Cols, p.Tuples)
	}
	f := Filter(r, func(t []types.Value) bool { return t[0].Int() >= 2 })
	if f.NumRows() != 2 {
		t.Errorf("filtered = %d", f.NumRows())
	}
	c := Concat(r, f)
	if c.NumRows() != 5 {
		t.Errorf("concat = %d", c.NumRows())
	}
}

// Property: hash join and a nested loop agree on random key multisets.
func TestJoinAlgorithmsAgreeProperty(t *testing.T) {
	f := func(lk, rk []uint8) bool {
		l, r := Rel{Cols: []string{"k"}}, Rel{Cols: []string{"k"}}
		for _, k := range lk {
			l.Tuples = append(l.Tuples, iv(int64(k%8)))
		}
		for _, k := range rk {
			r.Tuples = append(r.Tuples, iv(int64(k%8)))
		}
		hj, _ := HashJoin(l, r, []int{0}, []int{0})
		return reflect.DeepEqual(hj.Tuples, nestedLoopJoin(l, r, 0, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScanZoneMapSkip(t *testing.T) {
	p := testPartition(t, storage.DefaultColumnLayout(), 1000)
	pred := storage.Pred{{Col: 2, Op: storage.CmpGt, Val: types.NewInt64(99999)}}
	r, _, _ := Scan(p, []schema.ColID{2}, pred, storage.Latest)
	if r.NumRows() != 0 {
		t.Errorf("zone-map skip failed: %d rows", r.NumRows())
	}
}
