package cluster

// Differential test for routed builds: each probing site builds its join
// tables from the build rows it holds plus the rows of other sites whose
// keys its probe partitions' zone maps admit. Wherever co-location is
// broken or partial the answers must still equal the reference
// evaluator's.

import (
	"context"
	"testing"
	"time"

	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// routedProbeRows is the probe table: partition p (ids [200p, 200p+100) of
// [200p, 200p+200)) holds keys 10p..10p+9, ten rows each, with every 37th
// key NULL; kf is the key as a Float64.
func routedProbeRows() []schema.Row {
	var rows []schema.Row
	for p := int64(0); p < 4; p++ {
		for i := int64(0); i < 100; i++ {
			id := 200*p + i
			k, kf := types.NewInt64(10*p+i/10), types.NewFloat64(float64(10*p+i/10))
			if id%37 == 0 {
				k, kf = types.Null(), types.Null()
			}
			rows = append(rows, schema.Row{ID: schema.RowID(id), Vals: []types.Value{
				types.NewInt64(id), k, kf, types.NewFloat64(float64(id)),
			}})
		}
	}
	return rows
}

var routedProbeCols = []schema.Column{
	{Name: "id", Kind: types.KindInt64},
	{Name: "k", Kind: types.KindInt64},
	{Name: "kf", Kind: types.KindFloat64},
	{Name: "v", Kind: types.KindFloat64},
}

var routedBuildCols = []schema.Column{
	{Name: "bk", Kind: types.KindInt64},
	{Name: "w", Kind: types.KindFloat64},
	{Name: "grp", Kind: types.KindInt64},
}

// routedBuildRows is a build table with the given keys (NULL where
// null(i)): w = 100 + i, grp = i % 3.
func routedBuildRows(keys []int64, null func(int) bool) []schema.Row {
	rows := make([]schema.Row, len(keys))
	for i, k := range keys {
		kv := types.NewInt64(k)
		if null(i) {
			kv = types.Null()
		}
		rows[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{kv, types.NewFloat64(float64(100 + i)), types.NewInt64(int64(i % 3))}}
	}
	return rows
}

func TestRoutedBuildsMatchReference(t *testing.T) {
	ctx := context.Background()
	// Replication slowed to an hour: a replica read by a query catches up
	// to the query's snapshot on the read path, or not at all.
	cfg := fastConfig(ModeColumnStore, 2)
	cfg.ReplicationInterval = time.Hour
	e := New(cfg)
	t.Cleanup(e.Close)
	tables := refTables{}
	create := func(spec TableSpec, rows []schema.Row) *schema.Table {
		t.Helper()
		tbl, err := e.CreateTable(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.LoadRows(ctx, tbl.ID, rows); err != nil {
			t.Fatal(err)
		}
		tables[tbl.ID] = rows
		return tbl
	}
	at := func(sites ...simnet.SiteID) func(int) simnet.SiteID {
		return func(p int) simnet.SiteID { return sites[p] }
	}
	// Probe partitions alternate between the sites: keys 0-9 and 20-29 at
	// site 0, 10-19 and 30-39 at site 1.
	fact := create(TableSpec{Name: "probes", Cols: routedProbeCols, MaxRows: 800, Partitions: 4, PlaceAt: at(0, 1, 0, 1)},
		routedProbeRows())
	// Two build rows per key 0-39, every 13th NULL, placed crosswise: keys
	// 0-19 at site 1, 20-39 at site 0, so every site needs rows of the other.
	var keys []int64
	for k := int64(0); k < 40; k++ {
		keys = append(keys, k, k)
	}
	dim := create(TableSpec{Name: "builds", Cols: routedBuildCols, MaxRows: 80, Partitions: 2, PlaceAt: at(1, 0)},
		routedBuildRows(keys, func(i int) bool { return i%13 == 5 }))
	// Keys 3 and 5 at site 0: no build row can meet site 1's probe keys.
	home := create(TableSpec{Name: "homebound", Cols: routedBuildCols, MaxRows: 2, Partitions: 1, PlaceAt: at(0)},
		routedBuildRows([]int64{3, 5}, func(int) bool { return false }))
	// Keys -5 and 15 at site 1: inside the bounds of probe partition 0's
	// keys, outside its zone-map range.
	lone := create(TableSpec{Name: "lone", Cols: routedBuildCols, MaxRows: 2, Partitions: 1, PlaceAt: at(1)},
		routedBuildRows([]int64{-5, 15}, func(int) bool { return false }))
	// Keys 0-39 once each, every 11th NULL, mastered at site 1 and
	// replicated to site 0: each site builds from its own copy.
	var repKeys []int64
	for k := int64(0); k < 40; k++ {
		repKeys = append(repKeys, k)
	}
	repl := create(TableSpec{Name: "replicated", Cols: routedBuildCols, MaxRows: 40, Partitions: 1, PlaceAt: at(1), ReplicateAll: true},
		routedBuildRows(repKeys, func(i int) bool { return i%11 == 7 }))
	bands := create(TableSpec{Name: "bands", Cols: []schema.Column{
		{Name: "bid", Kind: types.KindInt64}, {Name: "label", Kind: types.KindString, AvgSize: 4},
	}, MaxRows: 6, Partitions: 2, PlaceAt: at(0, 1)}, bandsRows(3))

	// join probes fact column probe, projecting it and payload, against
	// build: [key, payload, bk, w, grp].
	join := func(probe, payload schema.ColID, build *schema.Table, pred storage.Pred) *query.JoinNode {
		return &query.JoinNode{
			Left:       &query.ScanNode{Table: fact.ID, Cols: []schema.ColID{probe, payload}, Pred: pred},
			Right:      &query.ScanNode{Table: build.ID, Cols: []schema.ColID{0, 1, 2}},
			LeftKeyCol: 0, RightKeyCol: 0,
		}
	}
	agg := func(child query.Node, groupBy []int, aggs ...exec.AggSpec) *query.Query {
		return &query.Query{Root: &query.AggNode{Child: child, GroupBy: groupBy, Aggs: aggs}}
	}
	countSum := []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggSum, Col: 1}}
	chain := &query.JoinNode{
		Left:       join(1, 3, dim, nil),
		Right:      &query.ScanNode{Table: bands.ID, Cols: []schema.ColID{0, 1}},
		LeftKeyCol: 4, RightKeyCol: 0, // keyed on the build column grp: routed everywhere
	} // [k, v, bk, w, grp, bid, label]
	// q7's shape: the replicated dimension first, then the crosswise one,
	// keyed on the probe column.
	replChain := &query.JoinNode{
		Left:       join(1, 3, repl, nil),
		Right:      &query.ScanNode{Table: dim.ID, Cols: []schema.ColID{0, 1, 2}},
		LeftKeyCol: 0, RightKeyCol: 0,
	} // [k, v, bk, w, grp, bk, w, grp]
	replShapes := []struct {
		name string
		q    *query.Query
	}{
		{"replicated dimension", agg(join(1, 3, repl, nil), nil, countSum...)},
		{"chain over a replicated dimension", agg(replChain, []int{4}, exec.AggSpec{Func: exec.AggCount}, exec.AggSpec{Func: exec.AggSum, Col: 6})},
		{"bare chain over a replicated dimension", &query.Query{Root: replChain}},
	}
	shapes := []struct {
		name string
		q    *query.Query
	}{
		{"NULL keys on both sides", &query.Query{Root: join(1, 3, dim, nil)}},
		{"Float64 probe key against Int64 build key", &query.Query{Root: join(2, 3, dim, nil)}},
		// Once split, the id and the key come from pieces on two sites.
		{"Float64 probe key beside the id", &query.Query{Root: join(2, 0, dim, nil)}},
		{"grouped by a build column", agg(join(1, 3, dim, nil), []int{4}, countSum...)},
		{"chain keyed on a build column", agg(chain, []int{6}, exec.AggSpec{Func: exec.AggCount}, exec.AggSpec{Func: exec.AggSum, Col: 3})},
		{"bare chain", &query.Query{Root: chain}},
		{"one site's table empty, ungrouped", agg(join(1, 3, home, nil), nil, countSum...)},
		{"every site's table empty, ungrouped", agg(join(1, 3, lone,
			storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(200)}}), nil, countSum...)},
	}
	shapes = append(shapes, replShapes...)
	checkAll := func(phase string) {
		t.Helper()
		for _, s := range shapes {
			checkRef(t, e, phase+": "+s.name, s.q, tables)
		}
	}
	// replRouted runs the replicated shapes, returning the build bytes
	// routed for the first, which joins the replicated dimension alone.
	replRouted := func(phase string) int64 {
		t.Helper()
		before := exec.ReadJoinStats().BroadcastBytes
		checkRef(t, e, phase+": "+replShapes[0].name, replShapes[0].q, tables)
		routed := exec.ReadJoinStats().BroadcastBytes - before
		for _, s := range replShapes[1:] {
			checkRef(t, e, phase+": "+s.name, s.q, tables)
		}
		return routed
	}
	checkAll("as loaded")
	if d := replRouted("whole at every site"); d != 0 {
		t.Errorf("every probing site holds a copy of the replicated dimension, yet %d build bytes were routed", d)
	}

	// Update the replicated dimension at its master just before a query
	// (key 3 becomes 12, row 20's payload -7): site 0's copy lags, and must
	// catch up to the query's snapshot before site 0 builds from it.
	rm := e.Dir.TablePartitions(repl.ID)[0]
	upd := &query.Txn{Ops: []query.Op{updateOp(repl, 3, 0, types.NewInt64(12)), updateOp(repl, 20, 1, types.NewFloat64(-7))}}
	if _, err := e.ExecuteTxn(ctx, e.NewSession(), upd); err != nil {
		t.Fatal(err)
	}
	tables[repl.ID][3].Vals[0] = types.NewInt64(12)
	tables[repl.ID][20].Vals[1] = types.NewFloat64(-7)
	master := copyVersion(t, e, rm.ID, 1)
	if copyVersion(t, e, rm.ID, 0) >= master {
		t.Fatal("fixture: site 0's copy of the replicated dimension is not behind its master")
	}
	replRouted("after a replicated update")
	if v := copyVersion(t, e, rm.ID, 0); v != master {
		t.Errorf("site 0's copy is at version %d after the queries, want the master's %d", v, master)
	}

	// Inserts after the load widen probe partition 0's zone map (site 0)
	// over keys that also live in partition 1's (site 1): key 15 now
	// belongs to both sites, and key 35 to both partitions of site 1's
	// range at site 0 too.
	var txn query.Txn
	for i, k := range []int64{15, 35, 15} {
		row := schema.Row{ID: schema.RowID(100 + i), Vals: []types.Value{
			types.NewInt64(int64(100 + i)), types.NewInt64(k), types.NewFloat64(float64(k)), types.NewFloat64(-1),
		}}
		txn.Ops = append(txn.Ops, query.Op{Kind: query.OpInsert, Table: fact.ID, Row: row.ID, Vals: row.Vals})
		tables[fact.ID] = append(tables[fact.ID], row)
	}
	if _, err := e.ExecuteTxn(ctx, e.NewSession(), &txn); err != nil {
		t.Fatal(err)
	}
	checkAll("after inserts")

	// Move probe partition 1 (keys 10-19, site 1) to site 0 under the
	// plans the queries above cached.
	moved := e.Dir.TablePartitions(fact.ID)[1]
	if err := e.AddReplicaOp(moved.ID, 0, moved.Master().Layout); err != nil {
		t.Fatal(err)
	}
	if err := e.ChangeMasterOp(moved.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveReplicaOp(moved.ID, 1); err != nil {
		t.Fatal(err)
	}
	checkAll("after a probe partition moved")

	// Split every probe partition between the keys and the payload, the
	// right piece on the other site: the probe runs stitched, its k from
	// one site's piece and its kf from the other's. Both pieces are row
	// copies, which keep the NULL keys NULL.
	splitVerticallyAs(t, e, fact, 2, storage.DefaultRowLayout())
	stitched := e.Obs.Counter("exec.morsels.stitched").Value()
	checkAll("stitched")
	if e.Obs.Counter("exec.morsels.stitched").Value() == stitched {
		t.Error("no probe ran stitched after the split")
	}

	// Drop site 0's copy of the replicated dimension: site 1 is still whole
	// but site 0 is not, so no site reads a copy of its own and the master's
	// rows are routed to site 0, as for a table held at one site.
	if err := e.RemoveReplicaOp(rm.ID, 0); err != nil {
		t.Fatal(err)
	}
	if d := replRouted("one probing site without a copy"); d == 0 {
		t.Error("site 0 holds no copy of the replicated dimension, yet no build row was routed to it")
	}
}
