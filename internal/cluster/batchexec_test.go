package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"

	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// TestMorselVerticalPieceFallback pins how the morsel executor serves
// vertically partitioned scans: a scan whose projection spans both vertical
// pieces has no covering piece, so it schedules stitched morsels across the
// pieces and must still return correct results; a scan confined to one
// piece falls back to that piece alone and stitches nothing.
func TestMorselVerticalPieceFallback(t *testing.T) {
	e, tbl := newTestEngine(t, ModeRowStore, 2, 1, 60)
	sess := e.NewSession()
	parts := e.Dir.TablePartitions(tbl.ID)
	// Pieces after the split: cols [0,2) and cols [2,4).
	if err := e.SplitV(parts[0].ID, 2, storage.DefaultRowLayout(), storage.DefaultColumnLayout()); err != nil {
		t.Fatal(err)
	}

	counts := func() (scheduled, stitched int64) {
		c := e.MetricsSnapshot().Counters
		return c["exec.morsels.scheduled"], c["exec.morsels.stitched"]
	}

	// Spanning scan: projection {1, 2} needs both pieces.
	sched0, stitch0 := counts()
	q := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{1, 2},
		Pred: storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(20)}}}}
	res, err := e.ExecuteQuery(context.Background(), sess, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 20 {
		t.Fatalf("spanning scan rows = %d, want 20", len(res.Tuples))
	}
	for _, row := range res.Tuples {
		if int64(row[1].Float())%10 != row[0].I {
			t.Fatalf("spanning scan row %v: grp and val come from different rows", row)
		}
	}
	sched1, stitch1 := counts()
	if sched1 == sched0 || stitch1 == stitch0 {
		t.Errorf("spanning vertical scan scheduled %d morsels, %d stitched; want both > 0", sched1-sched0, stitch1-stitch0)
	}

	// Confined scan: projection and predicate inside the first piece.
	q2 := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 1},
		Pred: storage.Pred{{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(30)}}}}
	res2, err := e.ExecuteQuery(context.Background(), sess, q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Tuples) != 30 {
		t.Fatalf("confined scan rows = %d, want 30", len(res2.Tuples))
	}
	if sched2, stitch2 := counts(); sched2 == sched1 || stitch2 != stitch1 {
		t.Error("confined vertical scan did not run on its covering piece alone")
	}

	// A spanning scan whose predicate one piece's zone map rules out prunes
	// the whole segment before any unit is scheduled.
	pruned := e.MetricsSnapshot().Counters["exec.morsels.pruned"]
	q3 := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{1, 2},
		Pred: storage.Pred{{Col: 2, Op: storage.CmpGe, Val: types.NewFloat64(100)}}}}
	res3, err := e.ExecuteQuery(context.Background(), sess, q3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Tuples) != 0 || e.MetricsSnapshot().Counters["exec.morsels.pruned"] == pruned {
		t.Errorf("out-of-range spanning scan: %d rows, pruned %d units; want 0 rows, some pruned",
			len(res3.Tuples), e.MetricsSnapshot().Counters["exec.morsels.pruned"]-pruned)
	}
}

// TestStitchedUnitsShipRemotePieces splits a table's partitions between
// two sites and aggregates a column of one piece under a predicate on the
// other: every stitched unit reads one piece on a site other than its own,
// so at least one message per unit must cross between the two sites, and
// the answer must still be the reference evaluator's.
func TestStitchedUnitsShipRemotePieces(t *testing.T) {
	const rows = 1200
	e, tbl := newMorselEngine(t, ModeColumnStore, 2, 2, rows, func(c *Config) {
		c.MorselRows = 100
	})
	splitVertically(t, e, tbl, 2)
	q := &query.Query{Root: &query.AggNode{
		Child: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{2},
			Pred: storage.Pred{{Col: 1, Op: storage.CmpLt, Val: types.NewInt64(5)}}},
		Aggs: []exec.AggSpec{{Func: exec.AggSum, Col: 0}, {Func: exec.AggCount}},
	}}
	between := func() int64 {
		return e.Net.Stats(0, 1).Messages + e.Net.Stats(1, 0).Messages
	}
	msgs, stitched := between(), e.MetricsSnapshot().Counters["exec.morsels.stitched"]
	want := refEval(q.Root, refTables{tbl.ID: testRows(rows)})
	sameRels(t, "stitched aggregate", runSorted(t, e, q), want)
	units := e.MetricsSnapshot().Counters["exec.morsels.stitched"] - stitched
	if units < 2 {
		t.Fatalf("%d stitched units, want several", units)
	}
	if crossed := between() - msgs; crossed < units {
		t.Errorf("%d messages crossed between the sites for %d stitched units; remote pieces went unshipped", crossed, units)
	}
}

// TestStreamAbandonedCursorReturnsBatches abandons streaming cursors with
// batches in flight and checks two invariants beyond goroutine cleanup:
// the workers' backpressure channel drains, and every pooled batch is
// returned (pool gets == puts once the workers exit), so an abandoned
// stream leaks neither goroutines nor batch buffers — for plain scans and,
// once the table is split vertically, for stitched ones.
func TestStreamAbandonedCursorReturnsBatches(t *testing.T) {
	e, tbl := newMorselEngine(t, ModeColumnStore, 2, 4, 20000, func(c *Config) {
		c.MorselRows = 32
		c.ScanBatchRows = 64
	})
	sess := e.NewSession()
	q := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 1, 2}}}

	abandon := func(what string) {
		t.Helper()
		baselineGoroutines := runtime.NumGoroutine()
		baselineBalance := storage.BatchPoolBalance()
		for i := 0; i < 8; i++ {
			cur, err := e.ExecuteQueryStream(context.Background(), sess, q)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3 && cur.Next(); k++ {
			}
			if err := cur.Close(); err != nil {
				t.Fatalf("%s: close: %v", what, err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			bal := storage.BatchPoolBalance()
			if runtime.NumGoroutine() <= baselineGoroutines+3 && bal == baselineBalance {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("abandoned %s leaked: %d goroutines (baseline %d), pool balance %d (baseline %d)",
					what, runtime.NumGoroutine(), baselineGoroutines, bal, baselineBalance)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	abandon("streams")
	st := storage.ReadBatchStats()
	if st.Batches == 0 || st.PoolGets == 0 {
		t.Fatalf("batch pipeline unused: %+v", st)
	}

	splitVertically(t, e, tbl, 2)
	stitched := e.MetricsSnapshot().Counters["exec.morsels.stitched"]
	abandon("stitched streams")
	if e.MetricsSnapshot().Counters["exec.morsels.stitched"] == stitched {
		t.Fatal("the spanning stream over the split table scheduled no stitched units")
	}
}

// TestBatchMetricsExported checks the engine snapshot carries the batch
// pipeline counters and derived gauges after a filtered aggregate ran over
// column stores, one of them with an update pending in its delta.
func TestBatchMetricsExported(t *testing.T) {
	e, tbl := newMorselEngine(t, ModeColumnStore, 2, 4, 2000, nil)
	sess := e.NewSession()
	before := e.MetricsSnapshot()
	if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
		updateOp(tbl, 3, 2, types.NewFloat64(-3)),
	}}); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Root: &query.AggNode{
		Child: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{2},
			Pred: storage.Pred{{Col: 1, Op: storage.CmpLt, Val: types.NewInt64(5)}}},
		Aggs: []exec.AggSpec{{Func: exec.AggSum, Col: 0}},
	}}
	if _, err := e.ExecuteQuery(context.Background(), sess, q); err != nil {
		t.Fatal(err)
	}
	snap := e.MetricsSnapshot()
	for _, k := range []string{"exec.batches.delta_units", "exec.batches.delta_rows_masked", "exec.batches.delta_rows_emitted"} {
		if snap.Counters[k] <= before.Counters[k] {
			t.Errorf("%s did not move over a scan with a pending update", k)
		}
	}
	if snap.Counters["exec.batches.count"] == 0 {
		t.Error("exec.batches.count not exported")
	}
	if snap.Counters["exec.batches.rows_scanned"] == 0 {
		t.Error("exec.batches.rows_scanned not exported")
	}
	if _, ok := snap.Gauges["exec.batches.selectivity_pct"]; !ok {
		t.Error("exec.batches.selectivity_pct gauge missing")
	}
	if snap.Counters["exec.batches.pool_gets"] < snap.Counters["exec.batches.pool_hits"] {
		t.Error("pool hit accounting inconsistent")
	}
}
