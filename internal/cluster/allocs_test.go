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
	"scan-agg":       166,  // grouped SUM and AVG over a filtered scan: 151 + 10 % (451 while every group was an entry, a key copy and a state of its own in each worker and a row of its own at the coordinator; 581 while each site merged its workers into an aggregator of its own, 585 while site pools allocated a closure per task)
	"row-stream":     2323, // a filtered two-column scan drained through a cursor: 2112 + 10 % (2115; 2114 since the streaming driver shares its worker loop with the per-site one)
	"join-agg":       416,  // pipelined fact ⋈ groups, grouped by a build column: 378 + 10 % (421 with allocations per group per worker, 440 with a site aggregator of its own, 446 before)
	"scan-agg-delta": 235,  // scan-agg with 50 updates pending per partition: 214 + 10 % (502 with allocations per group per worker, 632 with a site aggregator of its own, 636 before)
	"join-gather":    372,  // pipelined fact ⋈ groups, bare, its build side gathered from the remote site: 338 + 10 % (4309 in 256-row chunks, a tuple allocated per row)
}

// TestQueryAllocBudgets holds the query paths the executor serves — partial
// aggregation in the scan workers, the row sink behind a streaming cursor,
// the probe pipeline feeding per-site aggregates, and a bare pipelined join
// gathered columnar, one message per site — to their allocation budgets,
// and the scan-aggregate again over column stores with updates pending in
// their deltas. Background replication and maintenance
// are slowed to an hour so only the query allocates and no delta merges.
func TestQueryAllocBudgets(t *testing.T) {
	quiet := func(c *Config) {
		c.ReplicationInterval = time.Hour
		c.MaintainInterval = time.Hour
	}
	e, fact := newMorselEngine(t, ModeColumnStore, 2, 4, 4000, quiet)
	dim := addGroupsTable(t, e, 10)
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
	// coordinate, so its build side crosses the network.
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
	joinAgg := factDimJoinAgg(fact, dim)
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

// txnAllocBudgets caps the allocations of one transaction on a warmed
// two-site row-store engine shaped like the benchmark's oltp-rmw: eight
// partitions striped over the sites, each with a row replica at the other
// site, background replication and maintenance slowed to an hour. Budgets
// are the measured count + 10 %, as for queries.
var txnAllocBudgets = map[string]float64{
	"rmw10":      277, // ten keys read and updated over both sites: 252 + 10 % (253 while site pools allocated a closure per task, 258 behind a flusher goroutine, 383 when each read was its own round trip)
	"point-read": 28,  // one key read at the coordinator's own master: 25 + 10 % (26, 29 before that)
}

// TestTxnAllocBudgets holds a two-site read-modify-write of ten keys and a
// point read to their allocation budgets.
func TestTxnAllocBudgets(t *testing.T) {
	const rows = 4000
	e := New(func() Config {
		c := fastConfig(ModeRowStore, 2)
		c.ReplicationInterval, c.MaintainInterval = time.Hour, time.Hour
		return c
	}())
	t.Cleanup(e.Close)
	tbl, err := e.CreateTable(TableSpec{Name: "items", Cols: testCols, MaxRows: rows, Partitions: 8,
		PlaceAt: func(p int) simnet.SiteID { return simnet.SiteID(p % 2) }})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := e.LoadRows(ctx, tbl.ID, testRows(rows)); err != nil {
		t.Fatal(err)
	}
	for _, m := range e.Dir.TablePartitions(tbl.ID) {
		if err := e.AddReplicaOp(m.ID, 1-m.Master().Site, storage.DefaultRowLayout()); err != nil {
			t.Fatal(err)
		}
	}
	sess := e.NewSession()
	rmw := &query.Txn{}
	for k := int64(0); k < 10; k++ {
		row := 7 + 401*k // partitions 0, 0, 1, 2, 3, 4, 4, 5, 6, 7
		rmw.Ops = append(rmw.Ops, readOp(tbl, row, 2), updateOp(tbl, row, 2, types.NewFloat64(float64(k))))
	}
	point := &query.Txn{Ops: []query.Op{readOp(tbl, 42, 2)}} // partition 0, mastered at site 0
	for name, txn := range map[string]*query.Txn{"rmw10": rmw, "point-read": point} {
		run := func() {
			if _, err := e.ExecuteTxn(ctx, sess, txn); err != nil {
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

// maintainAllocBudget caps the allocations of one maintenance tick on the
// rmw10 engine of TestTxnAllocBudgets, with a transaction's versions to
// reclaim before each tick: measured + 10 %, as for transactions.
const maintainAllocBudget = 30 // 27 + 10 % (21 before the tick reclaimed versions)

// TestMaintainAllocBudget holds one maintenance tick — storage maintenance,
// checkpoint and truncation, the watermark pass, dependency fold and
// version GC — to its allocation budget.
func TestMaintainAllocBudget(t *testing.T) {
	const rows = 4000
	e := New(func() Config {
		c := fastConfig(ModeRowStore, 2)
		c.ReplicationInterval, c.MaintainInterval = time.Hour, time.Hour
		return c
	}())
	t.Cleanup(e.Close)
	tbl, err := e.CreateTable(TableSpec{Name: "items", Cols: testCols, MaxRows: rows, Partitions: 8,
		PlaceAt: func(p int) simnet.SiteID { return simnet.SiteID(p % 2) }})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := e.LoadRows(ctx, tbl.ID, testRows(rows)); err != nil {
		t.Fatal(err)
	}
	for _, m := range e.Dir.TablePartitions(tbl.ID) {
		if err := e.AddReplicaOp(m.ID, 1-m.Master().Site, storage.DefaultRowLayout()); err != nil {
			t.Fatal(err)
		}
	}
	sess := e.NewSession()
	rmw := &query.Txn{}
	for k := int64(0); k < 10; k++ {
		row := 7 + 401*k
		rmw.Ops = append(rmw.Ops, readOp(tbl, row, 2), updateOp(tbl, row, 2, types.NewFloat64(float64(k))))
	}
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
