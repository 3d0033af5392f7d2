package cluster

import (
	"context"
	"fmt"
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
	"scan-agg":       644,  // grouped SUM and AVG over a filtered scan: 585 + 10 %
	"row-stream":     2327, // a filtered two-column scan drained through a cursor: 2115 + 10 %
	"join-agg":       491,  // pipelined fact ⋈ groups, grouped by a build column: 446 + 10 %
	"scan-agg-delta": 700,  // scan-agg with 50 updates pending per partition: 636 + 10 %
}

// TestQueryAllocBudgets holds the three query paths the executor serves —
// partial aggregation in the scan workers, the row sink behind a streaming
// cursor, and the probe pipeline feeding per-site aggregates — to their
// allocation budgets, and the scan-aggregate again over column stores with
// updates pending in their deltas. Background replication and maintenance
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
	"rmw10":      279, // ten keys read and updated over both sites: 253 + 10 % (258 behind a flusher goroutine, 383 when each read was its own round trip)
	"point-read": 29,  // one key read at the coordinator's own master: 26 + 10 % (29 then)
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
