package cluster

// Engine-level differential tests for the batch join path: the engine must
// return exactly the rows the reference evaluator (refEval) returns —
// across every storage layout and a vertical split, under concurrent
// layout changes, with the runtime filter on and off, and when the build
// side spills — while the exec.join.* counters prove which path actually
// ran.

import (
	"context"
	"sync"
	"testing"

	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// joinDiffLayouts mirrors the partition-level differential layout matrix:
// row/column × memory/disk, sorted and RLE variants. SortBy is a local
// column index within the fact partitions. The last case also splits the
// fact partitions vertically between the join key and the payload, with
// the pieces on different sites, so every fact scan runs stitched.
var joinDiffLayouts = []struct {
	name  string
	l     storage.Layout
	split bool
}{
	{name: "row-mem", l: storage.Layout{Format: storage.RowFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort}},
	{name: "row-disk", l: storage.Layout{Format: storage.RowFormat, Tier: storage.DiskTier, SortBy: storage.NoSort}},
	{name: "col-mem", l: storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort}},
	{name: "col-mem-sorted", l: storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 0}},
	{name: "col-mem-rle", l: storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort, Compressed: true}},
	{name: "col-mem-rle-sorted", l: storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 0, Compressed: true}},
	{name: "col-disk-sorted", l: storage.Layout{Format: storage.ColumnFormat, Tier: storage.DiskTier, SortBy: 0}},
	{name: "col-disk-rle", l: storage.Layout{Format: storage.ColumnFormat, Tier: storage.DiskTier, SortBy: storage.NoSort, Compressed: true}},
	{name: "vertical-split", l: storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort, Compressed: true}, split: true},
}

// createGroups creates and loads the groups dimension with ngroups rows —
// gid g, weight g*10, tag "even"/"odd" — as one partition; place adjusts
// where it lives (replication, pinned site) before the table is created.
func createGroups(t *testing.T, e *Engine, ngroups int64, place func(*TableSpec)) *schema.Table {
	t.Helper()
	spec := TableSpec{
		Name: "groups",
		Cols: []schema.Column{
			{Name: "gid", Kind: types.KindInt64},
			{Name: "weight", Kind: types.KindFloat64},
			{Name: "tag", Kind: types.KindString, AvgSize: 4},
		},
		MaxRows: schema.RowID(ngroups), Partitions: 1,
	}
	place(&spec)
	dim, err := e.CreateTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadRows(context.Background(), dim.ID, groupsRows(ngroups)); err != nil {
		t.Fatal(err)
	}
	return dim
}

func groupsRows(ngroups int64) []schema.Row {
	rows := make([]schema.Row, 0, ngroups)
	for g := int64(0); g < ngroups; g++ {
		rows = append(rows, schema.Row{ID: schema.RowID(g), Vals: []types.Value{
			types.NewInt64(g), types.NewFloat64(float64(g) * 10), types.NewString([]string{"even", "odd"}[g%2]),
		}})
	}
	return rows
}

// addGroupsTable creates the groups dimension replicated at every site.
func addGroupsTable(t *testing.T, e *Engine, ngroups int64) *schema.Table {
	t.Helper()
	return createGroups(t, e, ngroups, func(s *TableSpec) { s.ReplicateAll = true })
}

// factDimJoin joins fact(grp, val) with groups(gid, weight, tag) on
// grp = gid, returning the full five-column output.
func factDimJoin(fact, dim *schema.Table) *query.Query {
	return &query.Query{Root: &query.JoinNode{
		Left:        &query.ScanNode{Table: fact.ID, Cols: []schema.ColID{1, 2}},
		Right:       &query.ScanNode{Table: dim.ID, Cols: []schema.ColID{0, 1, 2}},
		LeftKeyCol:  0,
		RightKeyCol: 0,
	}}
}

// factDimJoinAgg groups the join by the dimension tag and aggregates —
// the fused join→group-by path, which also exercises projection pushdown
// (the aggregate reads two of five join columns).
func factDimJoinAgg(fact, dim *schema.Table) *query.Query {
	return &query.Query{Root: &query.AggNode{
		Child:   factDimJoin(fact, dim).Root,
		GroupBy: []int{4},
		Aggs:    []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggSum, Col: 1}, {Func: exec.AggAvg, Col: 3}},
	}}
}

// addBandsTable creates a second replicated dimension with two rows per
// band id in [0, nbands) — (bid, label) — so joining on it fans out 2x.
func addBandsTable(t *testing.T, e *Engine, nbands int64) *schema.Table {
	t.Helper()
	dim, err := e.CreateTable(TableSpec{
		Name: "bands",
		Cols: []schema.Column{
			{Name: "bid", Kind: types.KindInt64},
			{Name: "label", Kind: types.KindString, AvgSize: 4},
		},
		MaxRows: schema.RowID(2 * nbands), Partitions: 1, ReplicateAll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadRows(context.Background(), dim.ID, bandsRows(nbands)); err != nil {
		t.Fatal(err)
	}
	return dim
}

func bandsRows(nbands int64) []schema.Row {
	var rows []schema.Row
	for i := int64(0); i < 2*nbands; i++ {
		rows = append(rows, schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(i / 2), types.NewString([]string{"lo", "hi"}[i%2]),
		}})
	}
	return rows
}

// joinShape is one query over fact(grp,val) ⋈ groups(gid,weight,tag)
// [⋈ bands(bid,label)], named for the path it exercises. materialized marks
// the shape the probe pipeline cannot serve.
type joinShape struct {
	name         string
	q            *query.Query
	materialized bool
}

// joinShapes builds the shapes the join must answer like the reference
// evaluator: the bare join (row sink), aggregation parents that are grouped
// by a build column (dense output), grouped by a probe column and ungrouped
// (scan-view output), with AVG (decomposed into per-site SUM and COUNT
// partials), a three-way left-deep chain — whose second join is keyed on a
// column of the first one's build side — bare and aggregated, a join whose
// few filtered fact rows are the build side, and a join over an aggregate,
// whose probe side is not a scan and so materializes.
func joinShapes(fact, dim, bands *schema.Table) []joinShape {
	bare := factDimJoin(fact, dim).Root // [grp, val, gid, weight, tag]
	threeWay := &query.JoinNode{
		Left:        bare,
		Right:       &query.ScanNode{Table: bands.ID, Cols: []schema.ColID{0, 1}},
		LeftKeyCol:  2,
		RightKeyCol: 0,
	} // [grp, val, gid, weight, tag, bid, label]
	agg := func(child query.Node, groupBy []int, aggs ...exec.AggSpec) *query.Query {
		return &query.Query{Root: &query.AggNode{Child: child, GroupBy: groupBy, Aggs: aggs}}
	}
	return []joinShape{
		{name: "bare", q: &query.Query{Root: bare}},
		{name: "grouped-by-build-col", q: factDimJoinAgg(fact, dim)},
		{name: "grouped-by-probe-col", q: agg(bare, []int{0},
			exec.AggSpec{Func: exec.AggSum, Col: 1}, exec.AggSpec{Func: exec.AggCount})},
		{name: "ungrouped", q: agg(bare, nil,
			exec.AggSpec{Func: exec.AggSum, Col: 1}, exec.AggSpec{Func: exec.AggCount},
			exec.AggSpec{Func: exec.AggMin, Col: 3}, exec.AggSpec{Func: exec.AggMax, Col: 1},
			exec.AggSpec{Func: exec.AggAvg, Col: 1})},
		{name: "count-only", q: agg(bare, nil, exec.AggSpec{Func: exec.AggCount})},
		{name: "three-way", q: &query.Query{Root: threeWay}},
		{name: "three-way-agg", q: agg(threeWay, []int{6},
			exec.AggSpec{Func: exec.AggCount}, exec.AggSpec{Func: exec.AggSum, Col: 3},
			exec.AggSpec{Func: exec.AggAvg, Col: 1})},
		{name: "fact-builds", q: &query.Query{Root: &query.JoinNode{
			Left: &query.ScanNode{Table: dim.ID, Cols: []schema.ColID{0, 2}},
			Right: &query.ScanNode{Table: fact.ID, Cols: []schema.ColID{1, 2},
				Pred: storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(5)}}},
			LeftKeyCol:  0,
			RightKeyCol: 0,
		}}},
		{name: "join-over-agg", materialized: true, q: &query.Query{Root: &query.JoinNode{
			Left: agg(&query.ScanNode{Table: fact.ID, Cols: []schema.ColID{1, 2}}, []int{0},
				exec.AggSpec{Func: exec.AggSum, Col: 1}, exec.AggSpec{Func: exec.AggCount}).Root,
			Right:       &query.ScanNode{Table: dim.ID, Cols: []schema.ColID{0, 1, 2}},
			LeftKeyCol:  0,
			RightKeyCol: 0,
		}}},
	}
}

func runSorted(t *testing.T, e *Engine, q *query.Query) exec.Rel {
	t.Helper()
	res, err := e.ExecuteQuery(context.Background(), e.NewSession(), q)
	if err != nil {
		t.Fatal(err)
	}
	sortTuples(res)
	return res
}

// setFactLayouts moves every copy of every fact partition to layout l.
func setFactLayouts(t *testing.T, e *Engine, fact *schema.Table, l storage.Layout) {
	t.Helper()
	for _, m := range e.Dir.TablePartitions(fact.ID) {
		for _, c := range m.AllCopies() {
			if c.Layout == l {
				continue
			}
			if err := e.ChangeCopyLayout(m.ID, c.Site, l); err != nil {
				t.Fatalf("layout %v on site %d: %v", l, c.Site, err)
			}
		}
	}
}

// TestBatchJoinMatchesRowEngineAcrossLayouts runs every join shape across
// the full layout matrix and requires the answers, materialized and
// streamed, to equal the reference evaluator's (the row operators over the
// generated rows). The counters double-check routing: every shape runs a
// batch hash join (exec.join.count), probed inside the scan workers
// (exec.join.pipelined) unless it is the shape that materializes; under the
// vertical split every shape whose fact scan spans the cut scans stitched
// units — on the probe side, and for "fact-builds" on the build side.
func TestBatchJoinMatchesRowEngineAcrossLayouts(t *testing.T) {
	const rows, ngroups, nbands = 240, 10, 8
	e, fact := newMorselEngine(t, ModeColumnStore, 2, 4, rows, nil)
	dim, bands := addGroupsTable(t, e, ngroups), addBandsTable(t, e, nbands)
	shapes := joinShapes(fact, dim, bands)
	tables := refTables{fact.ID: testRows(rows), dim.ID: groupsRows(ngroups), bands.ID: bandsRows(nbands)}

	for _, lc := range joinDiffLayouts {
		t.Run(lc.name, func(t *testing.T) {
			setFactLayouts(t, e, fact, lc.l)
			if lc.split {
				splitVertically(t, e, fact, 2)
			}
			for _, shape := range shapes {
				stitched := e.MetricsSnapshot().Counters["exec.morsels.stitched"]
				before := exec.ReadJoinStats()
				checkRef(t, e, shape.name, shape.q, tables)
				d := exec.ReadJoinStats()
				if d.Joins == before.Joins || (d.Pipelined == before.Pipelined) != shape.materialized {
					t.Fatalf("%s: joins %d -> %d, pipelined %d -> %d; want a batch join, pipelined=%v",
						shape.name, before.Joins, d.Joins, before.Pipelined, d.Pipelined, !shape.materialized)
				}
				// Under the split, a fact scan that projects or filters on
				// both pieces stitches them ("count-only" reads the key alone).
				moved := e.MetricsSnapshot().Counters["exec.morsels.stitched"] - stitched
				if (moved > 0) != (lc.split && shape.name != "count-only") {
					t.Errorf("%s: %d stitched units; want some exactly when a fact scan spans the vertical split", shape.name, moved)
				}
				if shape.name == "fact-builds" {
					pn, err := e.Planner.PlanQuery(shape.q)
					if err != nil {
						t.Fatal(err)
					}
					var ch probeChain
					flattenJoin(pn, &ch, false)
					if ch.scan == nil || ch.scan.Table != dim.ID {
						t.Errorf("fact-builds: the fact scan is not the build side")
					}
				}
			}
		})
	}
}

// TestBatchJoinUnderConcurrentLayoutChanges races join queries against
// continuous layout flipping on the fact partitions (run with -race): every
// answer must equal the quiescent answer, regardless of which layout each
// morsel scan observed.
func TestBatchJoinUnderConcurrentLayoutChanges(t *testing.T) {
	e, fact := newMorselEngine(t, ModeColumnStore, 2, 4, 300, func(c *Config) {
		c.MorselRows = 64
	})
	shapes := joinShapes(fact, addGroupsTable(t, e, 10), addBandsTable(t, e, 8))
	want := make([]exec.Rel, len(shapes))
	for i, shape := range shapes {
		want[i] = runSorted(t, e, shape.q)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		parts := e.Dir.TablePartitions(fact.ID)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := parts[i%len(parts)]
			l := joinDiffLayouts[i%len(joinDiffLayouts)].l
			// Master copy only: enough to race the scan path, cheap enough
			// to flip continuously.
			if err := e.ChangeCopyLayout(m.ID, m.Master().Site, l); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 6; round++ {
		for i, shape := range shapes {
			sameRels(t, shape.name+" under layout churn", runSorted(t, e, shape.q), want[i])
		}
	}
	close(stop)
	wg.Wait()
}

// sparseGroupRows holds only gids 0 and 9: the min-max bounds [0,9] prune
// nothing (the fact side has 0-9), so any probe-row rejection is the Bloom
// filter's doing.
var sparseGroupRows = []schema.Row{
	{ID: 0, Vals: []types.Value{types.NewInt64(0), types.NewFloat64(1), types.NewString("lo")}},
	{ID: 9, Vals: []types.Value{types.NewInt64(9), types.NewFloat64(2), types.NewString("hi")}},
}

// addSparseGroups loads sparseGroupRows as a replicated dimension.
func addSparseGroups(t *testing.T, e *Engine) *schema.Table {
	t.Helper()
	dim, err := e.CreateTable(TableSpec{
		Name: "groups",
		Cols: []schema.Column{
			{Name: "gid", Kind: types.KindInt64},
			{Name: "weight", Kind: types.KindFloat64},
			{Name: "tag", Kind: types.KindString, AvgSize: 4},
		},
		MaxRows: 10, Partitions: 1, ReplicateAll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadRows(context.Background(), dim.ID, sparseGroupRows); err != nil {
		t.Fatal(err)
	}
	return dim
}

// TestBatchJoinRuntimeFilterPruning joins against a dimension holding only
// gids {0, 9} while the fact side has 0-9: the runtime filter must push
// bounds predicates into the probe scans and Bloom-reject the probe rows
// with gids 1-8, and the answer must match the reference evaluator's.
func TestBatchJoinRuntimeFilterPruning(t *testing.T) {
	e, fact := newMorselEngine(t, ModeColumnStore, 2, 4, 240, nil)
	dim := addSparseGroups(t, e)
	q := factDimJoin(fact, dim)

	before := exec.ReadJoinStats()
	got := runSorted(t, e, q)
	d := exec.ReadJoinStats()
	if d.BoundsPreds == before.BoundsPreds {
		t.Error("no min-max bounds predicate was pushed into the probe scan")
	}
	if d.BloomTested == before.BloomTested {
		t.Error("no probe rows were Bloom-tested")
	}
	// 2 of 10 group values survive and the bounds [0,9] prune nothing, so
	// the Bloom filter must reject the grp 1..8 rows itself.
	if passed, tested := d.BloomPassed-before.BloomPassed, d.BloomTested-before.BloomTested; passed >= tested {
		t.Errorf("Bloom filter rejected nothing: %d/%d passed", passed, tested)
	}

	want := refEval(q.Root, refTables{fact.ID: testRows(240), dim.ID: sparseGroupRows})
	sortTuples(want)
	sameRels(t, "runtime filter", got, want)

	// 48 fact rows have grp in {0, 9} (240 rows, grp = i%10 → 24 each).
	if len(got.Tuples) != 48 {
		t.Errorf("join rows = %d, want 48", len(got.Tuples))
	}
}

// TestBatchJoinEmptyBuildSide joins against an empty dimension: the
// runtime filter reports Empty, the probe side is never scanned, and the
// result is zero rows (with the aggregate seeing an empty input).
func TestBatchJoinEmptyBuildSide(t *testing.T) {
	e, fact := newMorselEngine(t, ModeColumnStore, 2, 4, 100, nil)
	dim := addGroupsTable(t, e, 0)
	res := runSorted(t, e, factDimJoin(fact, dim))
	if len(res.Tuples) != 0 {
		t.Fatalf("join with empty build side returned %d rows", len(res.Tuples))
	}
}

// TestBatchJoinEngineSpill self-joins the fact table on id with a tiny
// JoinSpillBudget: the build side exceeds the budget, grace-partitions
// through the engine's disksim device, and still matches the in-memory
// answer of a default-budget engine.
func TestBatchJoinEngineSpill(t *testing.T) {
	selfJoin := func(tbl *schema.Table) *query.Query {
		return &query.Query{Root: &query.JoinNode{
			Left:        &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 1}},
			Right:       &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 2}},
			LeftKeyCol:  0,
			RightKeyCol: 0,
		}}
	}
	spill, factS := newMorselEngine(t, ModeColumnStore, 2, 4, 500, func(c *Config) {
		c.JoinSpillBudget = 1 << 10
	})
	mem, factM := newMorselEngine(t, ModeColumnStore, 2, 4, 500, nil)

	before := exec.ReadJoinStats()
	got := runSorted(t, spill, selfJoin(factS))
	d := exec.ReadJoinStats()
	if d.SpillPartitions == before.SpillPartitions || d.SpillBytes == before.SpillBytes {
		t.Fatal("join did not spill under a 1 KiB budget")
	}

	before = exec.ReadJoinStats()
	want := runSorted(t, mem, selfJoin(factM))
	if after := exec.ReadJoinStats(); after.SpillPartitions != before.SpillPartitions {
		t.Fatal("default-budget engine spilled a tiny build side")
	}
	sameRels(t, "spilled self-join", got, want)
	if len(got.Tuples) != 500 {
		t.Errorf("self-join rows = %d, want 500", len(got.Tuples))
	}
}

// TestBatchJoinMetricsExported checks the engine snapshot surfaces the
// exec.join.* and exec.groupby.* counters after a fused join-aggregate.
func TestBatchJoinMetricsExported(t *testing.T) {
	e, fact := newMorselEngine(t, ModeColumnStore, 2, 4, 200, nil)
	dim := addGroupsTable(t, e, 10)
	before := exec.ReadJoinStats()
	runSorted(t, e, factDimJoinAgg(fact, dim))
	after := exec.ReadJoinStats()

	snap := e.MetricsSnapshot()
	for _, key := range []string{
		"exec.join.count", "exec.join.build_rows", "exec.join.probe_rows",
		"exec.join.out_rows", "exec.join.build_ns", "exec.join.probe_ns",
		"exec.join.pipelined", "exec.join.chain_steps", "exec.groupby.batches",
	} {
		if snap.Counters[key] == 0 {
			t.Errorf("%s not exported or zero", key)
		}
	}
	if snap.Counters["exec.join.bloom_tested"] > 0 {
		if _, ok := snap.Gauges["exec.join.bloom_pass_pct"]; !ok {
			t.Error("exec.join.bloom_pass_pct gauge missing")
		}
	}
	if _, ok := snap.Counters["exec.join.broadcast_bytes"]; !ok {
		t.Error("exec.join.broadcast_bytes not exported")
	}
	// Every fact row matches one of ten unique gids at load factor 0.5: a
	// probe visits its match and, on average, half an entry more.
	if steps, probes := after.ChainSteps-before.ChainSteps, after.ProbeRows-before.ProbeRows; probes != 200 || steps < probes || steps > 2*probes {
		t.Errorf("chain_steps = %d over %d probes, want 200 probes at 1 to 2 entries each", steps, probes)
	}
	typed := snap.Counters["exec.groupby.rows_typed"] + snap.Counters["exec.groupby.rows_coded"]
	if typed == 0 {
		t.Error("grouped aggregation never took a typed key path")
	}
}
