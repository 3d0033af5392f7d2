package exec

// Differential tests for the batch-native hash join: BatchHashJoin must
// produce exactly the rows of the row HashJoin, in the same left-major
// order, across typed int keys, string keys, NULL keys, empty and
// duplicate-heavy inputs, encoded key vectors, projection pushdown, and
// the grace-spill path. The row HashJoin is the oracle: it is simple,
// heavily tested, and pinned against a plain nested loop already.

import (
	"math/rand"
	"reflect"
	"testing"

	"proteus/internal/disksim"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// tuplesEqual compares two tuple sets row for row (nil and empty agree).
func tuplesEqual(t *testing.T, got, want [][]types.Value, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rows = %d, want %d\ngot:  %v\nwant: %v", ctx, len(got), len(want), got, want)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

// batchJoinOracle runs BatchHashJoin and the row HashJoin on the same
// inputs and requires identical output, row for row.
func batchJoinOracle(t *testing.T, l, r Rel, spill *JoinSpill, ctx string) {
	t.Helper()
	want, _ := HashJoin(l, r, []int{0}, []int{0})
	lc, rc := ColRelFromRel(l), ColRelFromRel(r)
	out, obs, err := BatchHashJoin(&lc, &rc, 0, 0, spill, nil, nil)
	if err != nil {
		t.Fatalf("%s: BatchHashJoin: %v", ctx, err)
	}
	if !reflect.DeepEqual(out.Cols, want.Cols) {
		t.Fatalf("%s: cols = %v, want %v", ctx, out.Cols, want.Cols)
	}
	tuplesEqual(t, out.Rel().Tuples, want.Tuples, ctx)
	if out.NumRows() > 0 && obs.Latency <= 0 {
		t.Errorf("%s: missing latency in observation", ctx)
	}
}

// TestBatchHashJoinDifferential joins randomized relations — int keys and
// string keys, duplicate-heavy domains, occasional NULL keys, empty
// sides — and requires exact agreement with the row HashJoin.
func TestBatchHashJoinDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randKey := func(strKeys bool) types.Value {
		if rng.Intn(10) == 0 {
			return types.Null()
		}
		k := rng.Intn(5) // small domain: heavy duplication
		if strKeys {
			return types.NewString([]string{"a", "bb", "ccc", "dd", "e"}[k])
		}
		return types.NewInt64(int64(k))
	}
	for trial := 0; trial < 80; trial++ {
		strKeys := trial%2 == 1
		mk := func(n int, payload string) Rel {
			out := Rel{Cols: []string{"k", payload}}
			for i := 0; i < n; i++ {
				out.Tuples = append(out.Tuples,
					[]types.Value{randKey(strKeys), types.NewInt64(int64(i))})
			}
			return out
		}
		nl, nr := rng.Intn(30), rng.Intn(30)
		if trial < 4 {
			// Force the empty-side cases deterministically.
			nl, nr = trial/2*7, trial%2*7
		}
		batchJoinOracle(t, mk(nl, "la"), mk(nr, "rb"), nil, "trial")
	}
}

// TestBatchHashJoinMixedWidths joins relations with several payload
// columns of different kinds, so late materialization gathers int, float
// and string vectors (and a NULL-bearing one) side by side.
func TestBatchHashJoinMixedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := func(n int, side string) Rel {
		out := Rel{Cols: []string{side + "k", side + "i", side + "f", side + "s"}}
		for i := 0; i < n; i++ {
			f := types.NewFloat64(float64(rng.Intn(100)) / 4)
			if rng.Intn(8) == 0 {
				f = types.Null()
			}
			out.Tuples = append(out.Tuples, []types.Value{
				types.NewInt64(int64(rng.Intn(6))),
				types.NewInt64(int64(i)),
				f,
				types.NewString([]string{"x", "y", "zz"}[rng.Intn(3)]),
			})
		}
		return out
	}
	batchJoinOracle(t, mk(25, "l"), mk(40, "r"), nil, "mixed widths")
}

// TestBatchHashJoinEncodedKeys joins directly over encoded key vectors —
// frame-of-reference int codes and dictionary string codes — without
// decoding them first, and checks the result against the boxed join of
// the decoded equivalents.
func TestBatchHashJoinEncodedKeys(t *testing.T) {
	// FoR-encoded left key: value(i) = 1000 + code.
	l := ColRel{Cols: []string{"k", "la"}, Vecs: make([]storage.Vec, 2)}
	lCodes := []uint32{0, 2, 1, 2, 0, 3}
	l.Vecs[0] = storage.FoRVec(types.KindInt64, 1000, lCodes)
	for i := range lCodes {
		l.Vecs[1].Append(types.NewInt64(int64(i)))
	}
	l.SetRows(len(lCodes))

	// Plain right key overlapping the FoR frame.
	r := NewColRel([]string{"k", "rb"})
	for i, k := range []int64{1002, 1000, 999, 1003, 1002} {
		r.Vecs[0].Append(types.NewInt64(k))
		r.Vecs[1].Append(types.NewInt64(int64(100 + i)))
	}
	r.SetRows(5)

	want, _ := HashJoin(l.Rel(), r.Rel(), []int{0}, []int{0})
	out, _, err := BatchHashJoin(&l, &r, 0, 0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, out.Rel().Tuples, want.Tuples, "FoR keys")

	// Dictionary-encoded string keys on both sides.
	dict := []string{"ant", "bee", "cat"}
	dl := ColRel{Cols: []string{"k", "la"}, Vecs: make([]storage.Vec, 2)}
	dlCodes := []uint32{2, 0, 1, 0}
	dl.Vecs[0] = storage.DictVec(dlCodes, dict)
	for i := range dlCodes {
		dl.Vecs[1].Append(types.NewInt64(int64(i)))
	}
	dl.SetRows(len(dlCodes))
	dr := NewColRel([]string{"k", "rb"})
	for i, s := range []string{"bee", "cat", "dog", "ant"} {
		dr.Vecs[0].Append(types.NewString(s))
		dr.Vecs[1].Append(types.NewInt64(int64(200 + i)))
	}
	dr.SetRows(4)
	want, _ = HashJoin(dl.Rel(), dr.Rel(), []int{0}, []int{0})
	out, _, err = BatchHashJoin(&dl, &dr, 0, 0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, out.Rel().Tuples, want.Tuples, "dict keys")
}

// TestBatchHashJoinIntegralFloatKeys pins the float canonicalization: a
// null-free float key column of integral values must hash/compare like
// the equivalent ints (matching types.Value.Hash), and a fractional value
// must force the boxed path without changing the result.
func TestBatchHashJoinIntegralFloatKeys(t *testing.T) {
	for _, fractional := range []bool{false, true} {
		l := Rel{Cols: []string{"k", "la"}}
		r := Rel{Cols: []string{"k", "rb"}}
		for i := 0; i < 20; i++ {
			k := float64(i % 4)
			if fractional && i == 7 {
				k = 2.5
			}
			l.Tuples = append(l.Tuples, []types.Value{types.NewFloat64(k), types.NewInt64(int64(i))})
		}
		for i := 0; i < 15; i++ {
			r.Tuples = append(r.Tuples, []types.Value{types.NewFloat64(float64(i % 5)), types.NewInt64(int64(i))})
		}
		if fractional {
			r.Tuples[3][0] = types.NewFloat64(2.5)
		}
		batchJoinOracle(t, l, r, nil, "float keys")
	}
}

// TestBatchHashJoinProjection checks projL/projR late materialization:
// only the requested columns come back, labeled and ordered as requested,
// with values matching the corresponding columns of the full join.
func TestBatchHashJoinProjection(t *testing.T) {
	l := rel([]string{"lk", "la", "lb"},
		iv(1, 10, 11), iv(2, 20, 21), iv(1, 30, 31))
	r := rel([]string{"rk", "ra"}, iv(1, 100), iv(2, 200), iv(1, 300))
	lc, rc := ColRelFromRel(l), ColRelFromRel(r)
	full, _, err := BatchHashJoin(&lc, &rc, 0, 0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Project left col 2 ("lb") and right cols 1,0 ("ra","rk").
	proj, _, err := BatchHashJoin(&lc, &rc, 0, 0, nil, []int{2}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(proj.Cols, []string{"lb", "ra", "rk"}) {
		t.Fatalf("cols = %v", proj.Cols)
	}
	if proj.NumRows() != full.NumRows() {
		t.Fatalf("rows = %d, want %d", proj.NumRows(), full.NumRows())
	}
	fr, pr := full.Rel(), proj.Rel()
	for i := range pr.Tuples {
		wantRow := []types.Value{fr.Tuples[i][2], fr.Tuples[i][4], fr.Tuples[i][3]}
		if !reflect.DeepEqual(pr.Tuples[i], wantRow) {
			t.Fatalf("row %d = %v, want %v", i, pr.Tuples[i], wantRow)
		}
	}
	// Empty projections are legal: zero columns, correct row count.
	none, _, err := BatchHashJoin(&lc, &rc, 0, 0, nil, []int{}, []int{})
	if err != nil {
		t.Fatal(err)
	}
	if len(none.Cols) != 0 || none.NumRows() != full.NumRows() {
		t.Fatalf("empty projection: cols=%v rows=%d", none.Cols, none.NumRows())
	}
}

// TestBatchHashJoinSpill forces the grace-spill path with a tiny budget
// and a zero-latency disksim device: output must still match the row
// HashJoin exactly (the pair sort restores left-major order), and the
// spill counters must move — including the recursion counter, since every
// partition of a duplicate-heavy key set re-exceeds a 1-byte budget.
func TestBatchHashJoinSpill(t *testing.T) {
	spill := &JoinSpill{Device: disksim.New(disksim.Config{}), Budget: 1}
	rng := rand.New(rand.NewSource(23))
	mk := func(n int, strKeys bool) Rel {
		out := Rel{Cols: []string{"k", "v"}}
		for i := 0; i < n; i++ {
			var k types.Value
			switch {
			case rng.Intn(20) == 0:
				k = types.Null()
			case strKeys:
				k = types.NewString([]string{"aa", "b", "ccc"}[rng.Intn(3)])
			default:
				k = types.NewInt64(int64(rng.Intn(50)))
			}
			out.Tuples = append(out.Tuples, []types.Value{k, types.NewInt64(int64(i))})
		}
		return out
	}
	for _, strKeys := range []bool{false, true} {
		before := ReadJoinStats()
		batchJoinOracle(t, mk(300, strKeys), mk(200, strKeys), spill, "spill")
		d := ReadJoinStats()
		if d.SpillPartitions <= before.SpillPartitions {
			t.Fatal("spill partitions counter did not move; spill path not taken")
		}
		if d.SpillBytes <= before.SpillBytes {
			t.Fatal("spill bytes counter did not move")
		}
		if d.SpillRecursions <= before.SpillRecursions {
			t.Fatal("expected recursive repartitioning under a 1-byte budget")
		}
	}
}

// TestBatchHashJoinSpillThreshold pins the budget gate: a build side under
// budget must not spill, a negative/zero budget disables spilling.
func TestBatchHashJoinSpillThreshold(t *testing.T) {
	l := rel([]string{"k", "v"}, iv(1, 10), iv(2, 20))
	r := rel([]string{"k", "v"}, iv(1, 100), iv(2, 200))
	for _, sp := range []*JoinSpill{
		nil,
		{Device: disksim.New(disksim.Config{}), Budget: 0},
		{Device: disksim.New(disksim.Config{}), Budget: 1 << 30},
	} {
		before := ReadJoinStats().SpillPartitions
		batchJoinOracle(t, l, r, sp, "no spill expected")
		if after := ReadJoinStats().SpillPartitions; after != before {
			t.Fatalf("join spilled with spill=%+v", sp)
		}
	}
}

// TestKeySetSerializationRoundTrip round-trips typed and boxed key sets
// through the spill codec, including NULLs, strings and floats.
func TestKeySetSerializationRoundTrip(t *testing.T) {
	typed := keySet{kc: keyCol{ints: []int64{5, -1, 1 << 40}}, idx: []int32{7, 0, 3}}
	got, err := deserializeKeySet(serializeKeySet(typed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.kc.ints, typed.kc.ints) || !reflect.DeepEqual(got.idx, typed.idx) {
		t.Fatalf("typed round trip: %+v", got)
	}
	boxed := keySet{kc: keyCol{vals: []types.Value{
		types.NewString("hello"), types.Null(), types.NewFloat64(2.5), types.NewInt64(-9),
	}}, idx: []int32{2, 9, 4, 1}}
	got, err = deserializeKeySet(serializeKeySet(boxed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.idx, boxed.idx) {
		t.Fatalf("boxed idx round trip: %+v", got.idx)
	}
	for i, v := range boxed.kc.vals {
		if !types.Equal(got.kc.vals[i], v) {
			t.Fatalf("boxed val %d: %v, want %v", i, got.kc.vals[i], v)
		}
	}
	if _, err := deserializeKeySet([]byte{1, 2}); err == nil {
		t.Error("truncated block must error")
	}
}

// TestRuntimeFilterSemantics pins the runtime-filter contract: every build
// key passes, absent keys are (mostly) rejected, bounds predicates exist
// exactly when the build side is non-empty and NULL-free, and an empty
// build side reports Empty.
func TestRuntimeFilterSemantics(t *testing.T) {
	build := NewColRel([]string{"k"})
	for _, k := range []int64{10, 20, 30, 20} {
		build.Vecs[0].Append(types.NewInt64(k))
	}
	build.SetRows(4)
	f := BuildRuntimeFilter(&build, 0)
	if f.Empty() {
		t.Fatal("filter over 4 rows reports empty")
	}
	for _, k := range []int64{10, 20, 30} {
		if !f.TestValue(types.NewInt64(k)) {
			t.Errorf("build key %d rejected", k)
		}
	}
	bounds := f.BoundsPred(schema.ColID(5))
	if len(bounds) != 2 || bounds[0].Val.Int() != 10 || bounds[1].Val.Int() != 30 {
		t.Fatalf("bounds = %+v", bounds)
	}
	rejected := 0
	for k := int64(1000); k < 1100; k++ {
		if !f.TestValue(types.NewInt64(k)) {
			rejected++
		}
	}
	if rejected < 90 {
		t.Errorf("Bloom filter rejected only %d/100 absent keys", rejected)
	}

	// A NULL build key matches nothing, so it is left out: the bounds
	// cover the other keys (Eval drops NULL probe rows, as the join does)
	// and a NULL probe key never passes.
	withNull := NewColRel([]string{"k"})
	withNull.Vecs[0].Append(types.NewInt64(1))
	withNull.Vecs[0].Append(types.Null())
	withNull.SetRows(2)
	fn := BuildRuntimeFilter(&withNull, 0)
	if b := fn.BoundsPred(0); len(b) != 2 || b[0].Val.Int() != 1 || b[1].Val.Int() != 1 {
		t.Errorf("bounds with a NULL build key = %+v, want [1, 1]", b)
	}
	if fn.TestValue(types.Null()) || !fn.TestValue(types.NewInt64(1)) {
		t.Error("a NULL probe key must never pass, the build key 1 must")
	}
	onlyNull := NewColRel([]string{"k"})
	onlyNull.Vecs[0].Append(types.Null())
	onlyNull.SetRows(1)
	if fo := BuildRuntimeFilter(&onlyNull, 0); !fo.Empty() {
		t.Error("a build side of NULL keys only must read as empty")
	}

	empty := NewColRel([]string{"k"})
	fe := BuildRuntimeFilter(&empty, 0)
	if !fe.Empty() || fe.BoundsPred(0) != nil {
		t.Error("empty build side: Empty() must hold and bounds must be nil")
	}
	var nilF *RuntimeFilter
	if !nilF.Empty() {
		t.Error("nil filter must report empty")
	}
}

// TestRuntimeFilterBatchPaths runs FilterBatch over every key-vector shape
// it special-cases — FoR codes, dictionary codes, raw int64, and the boxed
// fallback — and requires the surviving selection to match per-row
// TestValue exactly (no false negatives, identical false positives).
func TestRuntimeFilterBatchPaths(t *testing.T) {
	build := NewColRel([]string{"k"})
	for _, k := range []int64{3, 5, 9} {
		build.Vecs[0].Append(types.NewInt64(k))
	}
	build.SetRows(3)
	f := BuildRuntimeFilter(&build, 0)

	strBuild := NewColRel([]string{"k"})
	for _, s := range []string{"bee", "cat"} {
		strBuild.Vecs[0].Append(types.NewString(s))
	}
	strBuild.SetRows(2)
	fs := BuildRuntimeFilter(&strBuild, 0)

	codes := []uint32{0, 1, 2, 3, 4, 5, 1, 3}
	mkBatch := func(v storage.Vec, sel []int32) *storage.Batch {
		ids := make([]schema.RowID, v.Len())
		for i := range ids {
			ids[i] = schema.RowID(i)
		}
		b := &storage.Batch{Vecs: []storage.Vec{v}, Sel: sel}
		b.SetRowIDsView(ids)
		return b
	}
	check := func(name string, f *RuntimeFilter, b *storage.Batch) {
		t.Helper()
		v := &b.Vecs[0]
		var want []int32
		b.Selected(func(r int) bool {
			if f.TestValue(v.Value(r)) {
				want = append(want, int32(r))
			}
			return true
		})
		got := f.FilterBatch(b, 0, nil)
		if !reflect.DeepEqual([]int32(got), want) {
			t.Errorf("%s: sel = %v, want %v", name, got, want)
		}
	}
	check("FoR", f, mkBatch(storage.FoRVec(types.KindInt64, 2, codes), nil))
	check("FoR+sel", f, mkBatch(storage.FoRVec(types.KindInt64, 2, codes), []int32{0, 3, 5, 7}))
	check("dict", fs, mkBatch(storage.DictVec(codes[:6], []string{"ant", "bee", "cat", "dog", "eel", "fox"}), nil))
	intVec := storage.Vec{}
	for _, k := range []int64{1, 3, 5, 7, 9, 11} {
		intVec.Append(types.NewInt64(k))
	}
	check("int64", f, mkBatch(intVec, nil))
	boxVec := storage.Vec{}
	boxVec.Append(types.NewInt64(3))
	boxVec.Append(types.Null())
	boxVec.Append(types.NewInt64(9))
	boxVec.Append(types.NewInt64(4))
	check("boxed", f, mkBatch(boxVec, nil))

	// FilterCols: the materialized-input counterpart must agree too.
	probe := NewColRel([]string{"k", "v"})
	for i := int64(0); i < 12; i++ {
		probe.Vecs[0].Append(types.NewInt64(i))
		probe.Vecs[1].Append(types.NewInt64(100 + i))
	}
	probe.SetRows(12)
	got := f.FilterCols(&probe, 0)
	gr := got.Rel()
	for _, tup := range gr.Tuples {
		if !f.TestValue(tup[0]) {
			t.Errorf("FilterCols kept rejected key %v", tup[0])
		}
	}
	kept := map[int64]bool{}
	for _, tup := range gr.Tuples {
		kept[tup[0].Int()] = true
	}
	for _, k := range []int64{3, 5, 9} {
		if !kept[k] {
			t.Errorf("FilterCols dropped build key %d", k)
		}
	}
}

// TestBatchJoinThenAggregate fuses a batch join into the grouped
// aggregator via ObserveCols and checks the result against the row
// pipeline (HashJoin + refAggregate) — the join→group-by fusion path the
// cluster executor uses for aggregates over joins.
func TestBatchJoinThenAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	l := Rel{Cols: []string{"k", "g", "x"}}
	r := Rel{Cols: []string{"k", "y"}}
	for i := 0; i < 60; i++ {
		l.Tuples = append(l.Tuples, []types.Value{
			types.NewInt64(int64(rng.Intn(8))),
			types.NewInt64(int64(rng.Intn(3))),
			types.NewFloat64(float64(rng.Intn(100)) / 2),
		})
	}
	for i := 0; i < 40; i++ {
		r.Tuples = append(r.Tuples, []types.Value{
			types.NewInt64(int64(rng.Intn(8))),
			types.NewInt64(int64(i)),
		})
	}
	groupBy := []int{1}
	specs := []AggSpec{{Func: AggCount}, {Func: AggSum, Col: 2}, {Func: AggMin, Col: 4}, {Func: AggAvg, Col: 2}}

	rowJoin, _ := HashJoin(l, r, []int{0}, []int{0})
	want := refAggregate(rowJoin.Tuples, groupBy, specs)

	lc, rc := ColRelFromRel(l), ColRelFromRel(r)
	joined, _, err := BatchHashJoin(&lc, &rc, 0, 0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(groupBy, specs)
	agg.ObserveCols(&joined)
	sameTuples(t, "join then aggregate", agg.Rel(joined.Cols).Tuples, want)
}
