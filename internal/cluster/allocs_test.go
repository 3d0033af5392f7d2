package cluster

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// queryAllocBudgets caps the allocations of one query on a warmed two-site
// column-store engine, per shape: the count measured when the budget was
// set plus 10 %. A change that allocates more fails here, before any
// benchmark run. Lower a budget when a change cuts its count; raise one
// only with a line in CHANGES.md saying why.
var queryAllocBudgets = map[string]float64{
	"scan-agg":        109,  // grouped SUM and AVG over a filtered scan: 99 + 10 % (117 = 106 + 10 % while each site task was a pool task with a done channel and a boxed closure; 126 while each site's share was boxed into a partial relation, concatenated and re-aggregated at the coordinator and the plan-cache key was formatted with fmt; 146 while each site's merge state was heap objects of its own and the session observed a copied read vector; 151 before cost features went by value and partition lookups stopped sorting; 451 while every group was an entry, a key copy and a state of its own in each worker and a row of its own at the coordinator; 581 while each site merged its workers into an aggregator of its own, 585 while site pools allocated a closure per task)
	"row-stream":      2293, // a filtered two-column scan drained through a cursor: 2084 + 10 % (2303 = 2093 + 10 % while each site task was a pool task; 2098 while the plan-cache key was formatted with fmt; 2107 while streaming had a worker loop of its own; 2114 before cost features went by value and partition lookups stopped sorting; 2115; 2114 since streaming shares its worker loop with the per-site path)
	"join-agg":        275,  // pipelined fact ⋈ groups, grouped by a build column, each probing site building its own table, groups held at one site and routed to the other: 250 + 10 % (285 = 259 + 10 % while each site task was a pool task; 283 while each site's share was boxed into a partial relation, concatenated and re-aggregated at the coordinator and the plan-cache key was formatted with fmt; 335 before dense keys got direct-addressed tables and scans stopped filtering for the conjuncts their zone maps prove; 366 with per-site merge state of its own; a replicated groups until it got a budget of its own; 368 while the coordinator built the one table; 378 before cost features went by value and partition lookups stopped sorting; 421 with allocations per group per worker, 440 with a site aggregator of its own, 446 before)
	"join-replicated": 295,  // join-agg over a replicated groups: each probing site scans its own copy, nothing routed: 268 + 10 % (306 = 278 + 10 % while each site task was a pool task; 302 while each site's share was boxed, concatenated and re-aggregated at the coordinator and the plan-cache key was formatted with fmt; 354 before dense keys got direct-addressed tables and scans stopped filtering for the conjuncts their zone maps prove; 394 with per-site merge state of its own; the second site's scan job costs more allocations than the routed rows did)
	"scan-agg-delta":  168,  // scan-agg with 50 updates pending per partition: 152 + 10 % (175 = 159 + 10 % while each site task was a pool task; 179 while each site's share was boxed, concatenated and re-aggregated at the coordinator and the plan-cache key was formatted with fmt; 189 while the aggregator grew its identity selection one row at a time; 209 with per-site merge state of its own; 214 before cost features went by value and partition lookups stopped sorting; 502 with allocations per group per worker, 632 with a site aggregator of its own, 636 before)
	"join-gather":     258,  // pipelined fact ⋈ groups, bare, its build side routed from the remote site: 234 + 10 % (267 = 242 + 10 % while each site task was a pool task; 253 while the plan-cache key was formatted with fmt; 293 before dense keys got direct-addressed tables and scans stopped filtering for the conjuncts their zone maps prove; 326 with per-site merge state of its own; 328 while it was gathered to the coordinator and its table broadcast; 338 before cost features went by value and partition lookups stopped sorting; 4309 in 256-row chunks, a tuple allocated per row)
}

// TestQueryAllocBudgets holds the query paths the executor serves — partial
// aggregation in the scan workers, the row sink behind a streaming cursor,
// the probe pipeline feeding per-site aggregates over routed and over
// replicated build sides, and a bare pipelined join gathered columnar, one
// message per site — to their allocation budgets,
// and the scan-aggregate again over column stores with updates pending in
// their deltas. Background replication and maintenance
// are slowed to an hour so only the query allocates and no delta merges.
func TestQueryAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not held under -race")
	}
	quiet := func(c *Config) {
		c.ReplicationInterval = time.Hour
		c.MaintainInterval = time.Hour
	}
	e, fact := newMorselEngine(t, ModeColumnStore, 2, 4, 4000, quiet)
	dim := createGroups(t, e, 10, func(s *TableSpec) { s.Name = "groups_at_0" })
	replicated := addGroupsTable(t, e, 10)
	sess := e.NewSession()
	ctx := context.Background()
	// A second engine whose four partitions each hold 50 pending updates.
	de, dfact := newMorselEngine(t, ModeColumnStore, 2, 4, 4000, quiet)
	dsess := de.NewSession()
	for i := int64(0); i < 200; i += 10 {
		txn := &query.Txn{}
		for r := i; r < i+10; r++ {
			txn.Ops = append(txn.Ops, updateOp(dfact, r*20, 2, types.NewFloat64(-1)))
		}
		if _, err := de.ExecuteTxn(ctx, dsess, txn); err != nil {
			t.Fatal(err)
		}
	}
	// A third engine whose dimension lives at the site that does not
	// coordinate, so its build rows cross the network to the coordinator's
	// probing site.
	ge, gfact := newSkewedEngine(t, 4000)
	gsess := ge.NewSession()
	gatherJoin := factDimJoin(gfact, createGroups(t, ge, 10, atSite(1, "groups")))
	scanAgg := func(tbl *schema.Table) *query.Query {
		return &query.Query{Root: &query.AggNode{
			Child: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{1, 2},
				Pred: storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(3000)}}},
			GroupBy: []int{0},
			Aggs:    []exec.AggSpec{{Func: exec.AggSum, Col: 1}, {Func: exec.AggAvg, Col: 1}},
		}}
	}
	factAgg, deltaAgg := scanAgg(fact), scanAgg(dfact)
	stream := &query.Query{Root: &query.ScanNode{Table: fact.ID, Cols: []schema.ColID{0, 2},
		Pred: storage.Pred{{Col: 1, Op: storage.CmpLt, Val: types.NewInt64(5)}}}}
	joinAgg, joinReplicated := factDimJoinAgg(fact, dim), factDimJoinAgg(fact, replicated)
	shapes := map[string]func(){
		"scan-agg": func() {
			if _, err := e.ExecuteQuery(ctx, sess, factAgg); err != nil {
				t.Fatal(err)
			}
		},
		"row-stream": func() {
			cur, err := e.ExecuteQueryStream(ctx, sess, stream)
			if err != nil {
				t.Fatal(err)
			}
			for cur.Next() {
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
		},
		"join-agg": func() {
			if _, err := e.ExecuteQuery(ctx, sess, joinAgg); err != nil {
				t.Fatal(err)
			}
		},
		"join-replicated": func() {
			if _, err := e.ExecuteQuery(ctx, sess, joinReplicated); err != nil {
				t.Fatal(err)
			}
		},
		"join-gather": func() {
			if _, err := ge.ExecuteQuery(ctx, gsess, gatherJoin); err != nil {
				t.Fatal(err)
			}
		},
		"scan-agg-delta": func() {
			if _, err := de.ExecuteQuery(ctx, dsess, deltaAgg); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, run := range shapes {
		for i := 0; i < 3; i++ {
			run() // warm plans, decisions and pools
		}
		got := testing.AllocsPerRun(50, run)
		t.Logf("%s: %.0f allocs/query (budget %.0f)", name, got, queryAllocBudgets[name])
		if got > queryAllocBudgets[name] {
			t.Errorf("%s: %.0f allocs per query, over its budget of %.0f", name, got, queryAllocBudgets[name])
		}
	}
}

// txnAllocBudgets caps the allocations of one transaction on rmwEngine's
// warmed two-site row-store engine, shaped like the benchmark's oltp-rmw.
// Budgets are the measured count + 10 %, as for queries.
var txnAllocBudgets = map[string]float64{
	"rmw10":       54, // ten keys read and updated over both sites: 49 + 10 % (58 = 53 + 10 % while each site task was a pool task with a done channel and a boxed closure; 73 while each row version was a header object plus its own byte array, 80 the budget; 252 while routing, plan bindings, redo records and cost features allocated per op; 253 while site pools allocated a closure per task, 258 behind a flusher goroutine, 383 when each read was its own round trip)
	"point-read":  17, // one key read at the coordinator's own master: 15 + 10 % (21 = 19 + 10 % while each site task was a pool task; 25 while routing and cost features allocated per op, 26, 29 before that)
	"insert-2tbl": 38, // an events insert at site 1 beside an items update at site 0: 34 + 10 % (42 = 38 + 10 % while each site task was a pool task; 42 while each row version was a header object plus its own byte array, 46 the budget; 82 before routing, plan bindings, redo records and cost features stopped allocating per op)
}

// rmwEngine builds the engine TestTxnAllocBudgets, TestMaintainAllocBudget
// and BenchmarkExecuteTxn measure on: two sites, an eight-partition items
// table striped over them with each partition's row replica at the other
// site, and background replication and maintenance slowed to an hour. It
// returns the engine, a read-modify-write of ten items keys (partitions 0,
// 0, 1, 2, 3, 4, 4, 5, 6, 7) and a point read of one key mastered at site
// 0.
func rmwEngine(tb testing.TB) (e *Engine, items *schema.Table, rmw, point *query.Txn) {
	tb.Helper()
	const rows = 4000
	e = New(func() Config {
		c := fastConfig(ModeRowStore, 2)
		c.ReplicationInterval, c.MaintainInterval = time.Hour, time.Hour
		return c
	}())
	tb.Cleanup(e.Close)
	items, err := e.CreateTable(TableSpec{Name: "items", Cols: testCols, MaxRows: rows, Partitions: 8,
		PlaceAt: func(p int) simnet.SiteID { return simnet.SiteID(p % 2) }})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.LoadRows(context.Background(), items.ID, testRows(rows)); err != nil {
		tb.Fatal(err)
	}
	for _, m := range e.Dir.TablePartitions(items.ID) {
		if err := e.AddReplicaOp(m.ID, 1-m.Master().Site, storage.DefaultRowLayout()); err != nil {
			tb.Fatal(err)
		}
	}
	rmw = &query.Txn{}
	for k := int64(0); k < 10; k++ {
		row := 7 + 401*k
		rmw.Ops = append(rmw.Ops, readOp(items, row, 2), updateOp(items, row, 2, types.NewFloat64(float64(k))))
	}
	point = &query.Txn{Ops: []query.Op{readOp(items, 42, 2)}}
	return e, items, rmw, point
}

// insertTxns adds a two-partition events table to rmwEngine's engine, the
// second partition mastered at site 1, and builds n transactions that each
// insert a fresh row there and update an items row mastered at site 0: the
// insert path, across two tables and both sites.
func insertTxns(tb testing.TB, e *Engine, items *schema.Table, n int) []*query.Txn {
	tb.Helper()
	events, err := e.CreateTable(TableSpec{Name: "events", Cols: testCols, MaxRows: 4000, Partitions: 2,
		PlaceAt: func(p int) simnet.SiteID { return simnet.SiteID(p % 2) }})
	if err != nil {
		tb.Fatal(err)
	}
	txns := make([]*query.Txn, n)
	for i := range txns {
		row := int64(2000 + i) // events partition 1
		txns[i] = &query.Txn{Ops: []query.Op{
			{Kind: query.OpInsert, Table: events.ID, Row: schema.RowID(row), Vals: []types.Value{
				types.NewInt64(row), types.NewInt64(row % 10), types.NewFloat64(float64(row)), types.NewString("e"),
			}},
			updateOp(items, 42, 2, types.NewFloat64(float64(i))), // items partition 0, site 0
		}}
	}
	return txns
}

// TestTxnAllocBudgets holds a two-site read-modify-write of ten keys, a
// point read, and a two-table insert-and-update to their allocation
// budgets.
func TestTxnAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not held under -race")
	}
	e, items, rmw, point := rmwEngine(t)
	ctx := context.Background()
	sess := e.NewSession()
	inserts, next := insertTxns(t, e, items, 60), 0
	shapes := map[string]func() *query.Txn{
		"rmw10":      func() *query.Txn { return rmw },
		"point-read": func() *query.Txn { return point },
		"insert-2tbl": func() *query.Txn {
			next++
			return inserts[next-1]
		},
	}
	for name, txn := range shapes {
		run := func() {
			if _, err := e.ExecuteTxn(ctx, sess, txn()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			run() // warm plans, decisions and pools
		}
		got := testing.AllocsPerRun(50, run)
		t.Logf("%s: %.0f allocs/txn (budget %.0f)", name, got, txnAllocBudgets[name])
		if got > txnAllocBudgets[name] {
			t.Errorf("%s: %.0f allocs per transaction, over its budget of %.0f", name, got, txnAllocBudgets[name])
		}
	}
}

// txnSink keeps BenchmarkExecuteTxn's results live.
var txnSink exec.Rel

// BenchmarkExecuteTxn measures ns and allocations per transaction on the
// CPU plane for TestTxnAllocBudgets' rmw10 and point-read shapes, one
// goroutine committing after another.
func BenchmarkExecuteTxn(b *testing.B) {
	e, _, rmw, point := rmwEngine(b)
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		txn  *query.Txn
	}{{"rmw10", rmw}, {"point-read", point}} {
		b.Run(bc.name, func(b *testing.B) {
			sess := e.NewSession()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel, err := e.ExecuteTxn(ctx, sess, bc.txn)
				if err != nil {
					b.Fatal(err)
				}
				txnSink = rel
			}
		})
	}
}

// maintainAllocBudget caps the allocations of one maintenance tick on the
// rmw10 engine of TestTxnAllocBudgets, with a transaction's versions to
// reclaim before each tick: measured + 10 %, as for transactions.
const maintainAllocBudget = 30 // 27 + 10 % (21 before the tick reclaimed versions)

// TestMaintainAllocBudget holds one maintenance tick — storage maintenance,
// checkpoint and truncation, the watermark pass, dependency fold and
// version GC — to its allocation budget.
func TestMaintainAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not held under -race")
	}
	e, _, rmw, _ := rmwEngine(t)
	ctx := context.Background()
	sess := e.NewSession()
	// A transaction, its records applied at the replicas (the horizon is
	// the lowest copy's version), then the measured tick.
	write := func() {
		if _, err := e.ExecuteTxn(ctx, sess, rmw); err != nil {
			t.Fatal(err)
		}
		for _, s := range e.Sites {
			if _, err := s.Repl.PollOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		write()
		e.maintain()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < 20; i++ {
		write()
		runtime.ReadMemStats(&before)
		e.maintain()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	got := float64(total) / 20
	if e.Obs.Counter("rowstore.versions_reclaimed").Value() == 0 {
		t.Fatal("the ticks reclaimed no version")
	}
	t.Logf("%.0f allocs/tick (budget %d)", got, maintainAllocBudget)
	if got > maintainAllocBudget {
		t.Errorf("%.0f allocs per maintenance tick, over its budget of %d", got, maintainAllocBudget)
	}
}

// replicaInstallAllocBudget caps one AddReplicaOp of a 4 000-row
// row-store partition with a ten-record redo tail, built from the broker's
// image and the tail: measured + 10 % (8 050 while the install captured
// the master's image under a group-commit barrier instead).
const replicaInstallAllocBudget = 41 // 37 + 10 % (8 876 = 8 069 + 10 % while rowstore.Mem.LoadImage allocated a version and its bytes per row)

// TestReplicaInstallAllocBudget holds one replica install — the broker's
// image cloned and loaded into a row store, the tail replayed, the copy
// subscribed and charged — to its allocation budget.
func TestReplicaInstallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not held under -race")
	}
	e, tbl := newSitedEngine(t, 2, 4000, nil)
	updateRows(t, e, tbl, 10)
	m := e.Dir.TablePartitions(tbl.ID)[0]
	install := func() {
		if err := e.AddReplicaOp(m.ID, 1, storage.DefaultRowLayout()); err != nil {
			t.Fatal(err)
		}
	}
	remove := func() {
		if err := e.RemoveReplicaOp(m.ID, 1); err != nil {
			t.Fatal(err)
		}
	}
	install()
	remove()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		install()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
		remove()
	}
	got := float64(total) / 10
	t.Logf("%.0f allocs/install (budget %d)", got, replicaInstallAllocBudget)
	if got > replicaInstallAllocBudget {
		t.Errorf("%.0f allocs per replica install, over its budget of %d", got, replicaInstallAllocBudget)
	}
}

// TestColNamesWithoutFormatting pins colNames to the labels fmt produced,
// past the precomputed table too, and to one allocation: the slice.
func TestColNamesWithoutFormatting(t *testing.T) {
	cols := make([]schema.ColID, 80)
	for i := range cols {
		cols[i] = schema.ColID(i)
	}
	for i, got := range colNames(cols) {
		if want := fmt.Sprintf("c%d", cols[i]); got != want {
			t.Fatalf("colNames(%d) = %q, want %q", cols[i], got, want)
		}
	}
	query := []schema.ColID{0, 3, 7, 12}
	if allocs := testing.AllocsPerRun(100, func() { colNames(query) }); allocs != 1 {
		t.Errorf("colNames allocates %v times per call, want 1", allocs)
	}
}
