package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
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
