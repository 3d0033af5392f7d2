package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/exec"
	"proteus/internal/faults"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// fastConfig returns a test engine config with near-zero simulated
// latencies and the advisor off unless asked.
func fastConfig(mode Mode, sites int) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.NumSites = sites
	cfg.Net = simnet.Config{} // zero-latency
	cfg.ReplicationInterval = time.Millisecond
	cfg.MaintainInterval = 5 * time.Millisecond
	return cfg
}

var testCols = []schema.Column{
	{Name: "id", Kind: types.KindInt64},
	{Name: "grp", Kind: types.KindInt64},
	{Name: "val", Kind: types.KindFloat64},
	{Name: "note", Kind: types.KindString, AvgSize: 16},
}

func newTestEngine(t *testing.T, mode Mode, sites, parts int, rows int64) (*Engine, *schema.Table) {
	t.Helper()
	e := New(fastConfig(mode, sites))
	t.Cleanup(e.Close)
	tbl, err := e.CreateTable(TableSpec{
		Name: "items", Cols: testCols, MaxRows: 100000, Partitions: parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]schema.Row, 0, rows)
	for i := int64(0); i < rows; i++ {
		data = append(data, schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(i), types.NewInt64(i % 10), types.NewFloat64(float64(i)), types.NewString(fmt.Sprintf("row-%d", i)),
		}})
	}
	if err := e.LoadRows(context.Background(), tbl.ID, data); err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

func readOp(tbl *schema.Table, row int64, cols ...schema.ColID) query.Op {
	return query.Op{Kind: query.OpRead, Table: tbl.ID, Row: schema.RowID(row), Cols: cols}
}

func updateOp(tbl *schema.Table, row int64, col schema.ColID, v types.Value) query.Op {
	return query.Op{Kind: query.OpUpdate, Table: tbl.ID, Row: schema.RowID(row),
		Cols: []schema.ColID{col}, Vals: []types.Value{v}}
}

func scanSumQuery(tbl *schema.Table) *query.Query {
	return &query.Query{Root: &query.AggNode{
		Child: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{2}},
		Aggs:  []exec.AggSpec{{Func: exec.AggSum, Col: 0}, {Func: exec.AggCount}},
	}}
}

func TestTxnReadAndUpdate(t *testing.T) {
	e, tbl := newTestEngine(t, ModeProteus, 2, 4, 100)
	sess := e.NewSession()

	res, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{readOp(tbl, 7, 0, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 || res.Tuples[0][0].Int() != 7 || res.Tuples[0][1].Float() != 7 {
		t.Fatalf("read = %v", res.Tuples)
	}

	if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
		updateOp(tbl, 7, 2, types.NewFloat64(-70)),
	}}); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes (SSSI).
	res, err = e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{readOp(tbl, 7, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples[0][0].Float() != -70 {
		t.Errorf("after update: %v", res.Tuples[0])
	}
}

func TestTxnInsertDelete(t *testing.T) {
	e, tbl := newTestEngine(t, ModeProteus, 2, 4, 10)
	sess := e.NewSession()
	ins := query.Op{Kind: query.OpInsert, Table: tbl.ID, Row: 5000, Vals: []types.Value{
		types.NewInt64(5000), types.NewInt64(1), types.NewFloat64(1), types.NewString("new"),
	}}
	if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{ins}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{readOp(tbl, 5000, 3)}})
	if err != nil || res.Tuples[0][0].Str() != "new" {
		t.Fatalf("insert read: %v %v", res.Tuples, err)
	}
	del := query.Op{Kind: query.OpDelete, Table: tbl.ID, Row: 5000}
	if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{del}}); err != nil {
		t.Fatal(err)
	}
	res, _ = e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{readOp(tbl, 5000, 0)}})
	if res.Tuples[0] != nil {
		t.Errorf("deleted row read: %v", res.Tuples[0])
	}
	// Duplicate insert aborts.
	ins2 := query.Op{Kind: query.OpInsert, Table: tbl.ID, Row: 3, Vals: []types.Value{
		types.NewInt64(3), types.NewInt64(0), types.NewFloat64(0), types.NewString("dup"),
	}}
	if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{ins2}}); err == nil {
		t.Error("duplicate insert committed")
	}
	if e.Stats().Aborts() == 0 {
		t.Error("abort not counted")
	}
}

func TestScanAggregateQuery(t *testing.T) {
	for _, mode := range []Mode{ModeProteus, ModeRowStore, ModeColumnStore, ModeJanus, ModeTiDB} {
		t.Run(mode.String(), func(t *testing.T) {
			e, tbl := newTestEngine(t, mode, 2, 4, 200)
			sess := e.NewSession()
			res, err := e.ExecuteQuery(context.Background(), sess, scanSumQuery(tbl))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tuples) != 1 {
				t.Fatalf("agg rows = %d", len(res.Tuples))
			}
			// sum(0..199) = 19900, count = 200.
			if res.Tuples[0][0].Float() != 19900 || res.Tuples[0][1].Int() != 200 {
				t.Errorf("agg = %v", res.Tuples[0])
			}
		})
	}
}

func TestQueryWithPredicateAndGroupBy(t *testing.T) {
	e, tbl := newTestEngine(t, ModeProteus, 3, 6, 300)
	sess := e.NewSession()
	q := &query.Query{Root: &query.AggNode{
		Child: &query.ScanNode{
			Table: tbl.ID,
			Cols:  []schema.ColID{1, 2},
			Pred:  storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(100)}},
		},
		GroupBy: []int{0},
		Aggs:    []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggAvg, Col: 1}},
	}}
	res, err := e.ExecuteQuery(context.Background(), sess, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 10 {
		t.Fatalf("groups = %d: %v", len(res.Tuples), res.Tuples)
	}
	for _, tup := range res.Tuples {
		if tup[1].Int() != 10 { // 100 rows over 10 groups
			t.Errorf("group %v count = %v", tup[0], tup[1])
		}
		g := tup[0].Int()
		// avg of g, g+10, ..., g+90 = g+45.
		if tup[2].Float() != float64(g)+45 {
			t.Errorf("group %d avg = %v", g, tup[2])
		}
	}
}

func TestUpdatesVisibleToQueries(t *testing.T) {
	e, tbl := newTestEngine(t, ModeProteus, 2, 2, 50)
	sess := e.NewSession()
	for i := int64(0); i < 50; i++ {
		if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
			updateOp(tbl, i, 2, types.NewFloat64(1)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.ExecuteQuery(context.Background(), sess, scanSumQuery(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples[0][0].Float() != 50 {
		t.Errorf("sum after updates = %v", res.Tuples[0])
	}
}

func TestJoinQueryWithReplicatedDimension(t *testing.T) {
	e, tbl := newTestEngine(t, ModeProteus, 2, 4, 100)
	dim, err := e.CreateTable(TableSpec{
		Name: "groups",
		Cols: []schema.Column{
			{Name: "gid", Kind: types.KindInt64},
			{Name: "weight", Kind: types.KindFloat64},
		},
		MaxRows: 100, Partitions: 1, ReplicateAll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	for g := int64(0); g < 10; g++ {
		rows = append(rows, schema.Row{ID: schema.RowID(g), Vals: []types.Value{
			types.NewInt64(g), types.NewFloat64(float64(g) * 10),
		}})
	}
	if err := e.LoadRows(context.Background(), dim.ID, rows); err != nil {
		t.Fatal(err)
	}

	sess := e.NewSession()
	q := &query.Query{Root: &query.AggNode{
		Child: &query.JoinNode{
			Left:        &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{1, 2}},
			Right:       &query.ScanNode{Table: dim.ID, Cols: []schema.ColID{0, 1}},
			LeftKeyCol:  0, // grp
			RightKeyCol: 0, // gid
		},
		Aggs: []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggSum, Col: 3}},
	}}
	res, err := e.ExecuteQuery(context.Background(), sess, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples[0][0].Int() != 100 {
		t.Errorf("join count = %v", res.Tuples[0][0])
	}
	// Each group g has 10 rows, weight g*10: sum = 10 * sum(g*10) = 4500.
	if res.Tuples[0][1].Float() != 4500 {
		t.Errorf("join sum = %v", res.Tuples[0][1])
	}
}

// TestReplicateAllOneCopyPerSite: a ReplicateAll table has exactly one
// copy at every site in every mode, recorded once in the directory — in
// Janus and TiDB the ReplicateAll replica takes the place of the mode's
// column replica, not stacked over it while the directory lists both —
// each site's store holds the copy the directory records, and every
// replica is in the ReplicateAll layout.
func TestReplicateAllOneCopyPerSite(t *testing.T) {
	for _, mode := range []Mode{ModeProteus, ModeRowStore, ModeColumnStore, ModeJanus, ModeTiDB} {
		for _, sites := range []int{2, 3} {
			e := New(fastConfig(mode, sites))
			dim, err := e.CreateTable(TableSpec{Name: "groups", Cols: testCols, MaxRows: 100, Partitions: 2, ReplicateAll: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range e.Dir.TablePartitions(dim.ID) {
				seen := map[simnet.SiteID]bool{}
				for _, c := range m.AllCopies() {
					if seen[c.Site] {
						t.Errorf("%v, %d sites: partition %d lists two copies at site %d: %v", mode, sites, m.ID, c.Site, m.AllCopies())
					}
					seen[c.Site] = true
					p, ok := e.siteOf(c.Site).Partition(m.ID)
					if !ok {
						t.Errorf("%v, %d sites: partition %d has no copy at site %d", mode, sites, m.ID, c.Site)
					} else if got := p.Layout(); got != c.Layout {
						t.Errorf("%v, %d sites: partition %d at site %d is stored %v, recorded %v", mode, sites, m.ID, c.Site, got, c.Layout)
					}
					if c.Site != m.Master().Site && !c.Layout.Compressed {
						t.Errorf("%v, %d sites: partition %d's replica at site %d is %v, want the compressed ReplicateAll layout", mode, sites, m.ID, c.Site, c.Layout)
					}
				}
				if len(seen) != sites {
					t.Errorf("%v, %d sites: partition %d has copies at %d sites, want every one", mode, sites, m.ID, len(seen))
				}
			}
			e.Close()
		}
	}
}

func TestDistributedTxn2PC(t *testing.T) {
	e, tbl := newTestEngine(t, ModeProteus, 2, 2, 100)
	sess := e.NewSession()
	// Partitions split at row 50000; rows 1 and 60000... our table has
	// 100000 max rows over 2 partitions. Write one row in each partition.
	ins := query.Op{Kind: query.OpInsert, Table: tbl.ID, Row: 60000, Vals: []types.Value{
		types.NewInt64(60000), types.NewInt64(0), types.NewFloat64(5), types.NewString("far"),
	}}
	upd := updateOp(tbl, 1, 2, types.NewFloat64(99))
	if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{ins, upd}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
		readOp(tbl, 60000, 2), readOp(tbl, 1, 2),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples[0][0].Float() != 5 || res.Tuples[1][0].Float() != 99 {
		t.Errorf("2pc reads: %v", res.Tuples)
	}
}

func TestConcurrentMixedWorkloadConsistency(t *testing.T) {
	e, tbl := newTestEngine(t, ModeProteus, 2, 4, 200)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Writers increment val on disjoint rows; a scanner checks the sum is
	// consistent with some prefix of commits.
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := e.NewSession()
			for i := 0; i < 25; i++ {
				row := int64(w*25 + i)
				if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
					updateOp(tbl, row, 2, types.NewFloat64(1000)),
				}}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := e.NewSession()
		for i := 0; i < 10; i++ {
			if _, err := e.ExecuteQuery(context.Background(), sess, scanSumQuery(tbl)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Final state: 100 rows at 1000, rows 100..199 keep value i.
	sess := e.NewSession()
	res, err := e.ExecuteQuery(context.Background(), sess, scanSumQuery(tbl))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(100*1000) + float64(100+199)*100/2
	if res.Tuples[0][0].Float() != want {
		t.Errorf("final sum = %v, want %v", res.Tuples[0][0], want)
	}
}

func TestLayoutChangePreservesData(t *testing.T) {
	e, tbl := newTestEngine(t, ModeRowStore, 2, 2, 100)
	sess := e.NewSession()
	parts := e.Dir.TablePartitions(tbl.ID)
	for _, m := range parts {
		to := storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 1, Compressed: true}
		if err := e.ChangeCopyLayout(m.ID, m.Master().Site, to); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.ExecuteQuery(context.Background(), sess, scanSumQuery(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples[0][0].Float() != 4950 || res.Tuples[0][1].Int() != 100 {
		t.Errorf("after format change: %v", res.Tuples[0])
	}
	// And updates still work on the new layout.
	if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
		updateOp(tbl, 10, 2, types.NewFloat64(0)),
	}}); err != nil {
		t.Fatal(err)
	}
	res, _ = e.ExecuteQuery(context.Background(), sess, scanSumQuery(tbl))
	if res.Tuples[0][0].Float() != 4940 {
		t.Errorf("after update on columns: %v", res.Tuples[0])
	}
}

func TestSplitVerticalThenReadAndScan(t *testing.T) {
	e, tbl := newTestEngine(t, ModeRowStore, 2, 1, 60)
	sess := e.NewSession()
	parts := e.Dir.TablePartitions(tbl.ID)
	if err := e.SplitV(parts[0].ID, 2, storage.DefaultRowLayout(), storage.DefaultColumnLayout()); err != nil {
		t.Fatal(err)
	}
	if err := e.Dir.Validate(tbl.ID, e.TableMaxRow(tbl.ID), len(testCols)); err != nil {
		t.Fatal(err)
	}
	// Point read spanning both pieces.
	res, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{readOp(tbl, 5, 0, 2, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples[0][0].Int() != 5 || res.Tuples[0][1].Float() != 5 || res.Tuples[0][2].Str() != "row-5" {
		t.Errorf("cross-piece read: %v", res.Tuples[0])
	}
	// Scan spanning both pieces with a predicate on each side.
	q := &query.Query{Root: &query.AggNode{
		Child: &query.ScanNode{
			Table: tbl.ID, Cols: []schema.ColID{2},
			Pred: storage.Pred{
				{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(10)},
				{Col: 2, Op: storage.CmpLt, Val: types.NewFloat64(20)},
			},
		},
		Aggs: []exec.AggSpec{{Func: exec.AggCount}},
	}}
	res2, err := e.ExecuteQuery(context.Background(), sess, q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Tuples[0][0].Int() != 10 { // rows 10..19
		t.Errorf("cross-piece scan count = %v", res2.Tuples[0])
	}
	// Updates to both pieces commit atomically.
	if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
		{Kind: query.OpUpdate, Table: tbl.ID, Row: 5,
			Cols: []schema.ColID{2, 3},
			Vals: []types.Value{types.NewFloat64(-5), types.NewString("both")}},
	}}); err != nil {
		t.Fatal(err)
	}
	res, _ = e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{readOp(tbl, 5, 2, 3)}})
	if res.Tuples[0][0].Float() != -5 || res.Tuples[0][1].Str() != "both" {
		t.Errorf("cross-piece update: %v", res.Tuples[0])
	}
}

func TestSplitHorizontalAndMerge(t *testing.T) {
	e, tbl := newTestEngine(t, ModeRowStore, 2, 1, 100)
	sess := e.NewSession()
	parts := e.Dir.TablePartitions(tbl.ID)
	if err := e.SplitH(parts[0].ID, 50); err != nil {
		t.Fatal(err)
	}
	if err := e.Dir.Validate(tbl.ID, e.TableMaxRow(tbl.ID), len(testCols)); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteQuery(context.Background(), sess, scanSumQuery(tbl))
	if err != nil || res.Tuples[0][1].Int() != 100 {
		t.Fatalf("after split: %v %v", res.Tuples, err)
	}
	// Merge back.
	np := e.Dir.TablePartitions(tbl.ID)
	if len(np) != 2 {
		t.Fatalf("partitions = %d", len(np))
	}
	if err := e.MergeH(np[0].ID, np[1].ID); err != nil {
		t.Fatal(err)
	}
	res, err = e.ExecuteQuery(context.Background(), sess, scanSumQuery(tbl))
	if err != nil || res.Tuples[0][1].Int() != 100 {
		t.Fatalf("after merge: %v %v", res.Tuples, err)
	}
}

// TestSplitMergeDropsRetiredDeps: transactions co-write the partition
// being split and merged back and another one, so every partition the loop
// retires has a dependency run. Retiring drops it: once the tick folds the
// live runs, the tracker keeps at most one entry per live partition.
func TestSplitMergeDropsRetiredDeps(t *testing.T) {
	e, tbl := newTestEngine(t, ModeRowStore, 2, 2, 100)
	sess := e.NewSession()
	write := func() {
		t.Helper()
		txn := &query.Txn{Ops: []query.Op{
			updateOp(tbl, 10, 2, types.NewFloat64(1)),
			updateOp(tbl, 30, 2, types.NewFloat64(2)),
			updateOp(tbl, 70, 2, types.NewFloat64(3)),
		}}
		if _, err := e.ExecuteTxn(context.Background(), sess, txn); err != nil {
			t.Fatal(err)
		}
	}
	retired := 0
	for i := 0; i < 10; i++ {
		write()
		if err := e.SplitH(e.Dir.TablePartitions(tbl.ID)[0].ID, 25); err != nil {
			t.Fatal(err)
		}
		write()
		np := e.Dir.TablePartitions(tbl.ID)
		if err := e.MergeH(np[0].ID, np[1].ID); err != nil {
			t.Fatal(err)
		}
		retired += 3
	}
	write()
	e.maintain()
	live := len(e.Dir.TablePartitions(tbl.ID))
	if got := e.Deps.Entries(); got > live {
		t.Errorf("tracker keeps %d entries after %d partitions retired, want at most one per live partition (%d)", got, retired, live)
	}
}

// TestPlanTxnDuringSplitMerge plans transactions over every row while the
// table's one partition is split and merged back again and again: the
// directory swaps old partitions for new in one step, so no plan may ever
// find a row without a partition. `go test -race` runs it in CI.
func TestPlanTxnDuringSplitMerge(t *testing.T) {
	e, tbl := newTestEngine(t, ModeRowStore, 2, 1, 100)
	stop := make(chan struct{})
	var planned, failed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for row := int64(p); ; row = (row + 13) % 100 {
				select {
				case <-stop:
					return
				default:
				}
				txn := &query.Txn{Ops: []query.Op{readOp(tbl, row, 2), updateOp(tbl, (row+50)%100, 2, types.NewFloat64(1))}}
				if _, err := e.Planner.PlanTxn(txn); err != nil {
					failed.Add(1)
					t.Errorf("plan rows %d, %d: %v", row, (row+50)%100, err)
					return
				}
				planned.Add(1)
			}
		}()
	}
	for i := 0; i < 200 && !t.Failed(); i++ {
		if err := e.SplitH(e.Dir.TablePartitions(tbl.ID)[0].ID, 50); err != nil {
			t.Fatal(err)
		}
		np := e.Dir.TablePartitions(tbl.ID)
		if err := e.MergeH(np[0].ID, np[1].ID); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if planned.Load() == 0 || failed.Load() != 0 {
		t.Fatalf("%d plans, %d failed", planned.Load(), failed.Load())
	}
}

func TestReplicaAddRemoveAndMasterChange(t *testing.T) {
	e, tbl := newTestEngine(t, ModeRowStore, 2, 2, 100)
	sess := e.NewSession()
	m := e.Dir.TablePartitions(tbl.ID)[0]
	oldMaster := m.Master().Site
	other := simnet.SiteID(1 - int(oldMaster))

	if err := e.AddReplicaOp(m.ID, other, storage.DefaultColumnLayout()); err != nil {
		t.Fatal(err)
	}
	if len(m.Replicas()) != 1 {
		t.Fatal("replica not registered")
	}
	// Update flows to the replica lazily; a query through it must be fresh.
	if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
		updateOp(tbl, 1, 2, types.NewFloat64(500)),
	}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteQuery(context.Background(), sess, scanSumQuery(tbl))
	if err != nil {
		t.Fatal(err)
	}
	want := 4950 - 1 + 500.0
	if res.Tuples[0][0].Float() != want {
		t.Errorf("sum via replica = %v, want %v", res.Tuples[0][0], want)
	}

	// Master change to the replica site.
	if err := e.ChangeMasterOp(m.ID, other); err != nil {
		t.Fatal(err)
	}
	if m.Master().Site != other {
		t.Fatal("master not moved")
	}
	if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
		updateOp(tbl, 2, 2, types.NewFloat64(0)),
	}}); err != nil {
		t.Fatal(err)
	}
	r2, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{readOp(tbl, 2, 2)}})
	if err != nil || r2.Tuples[0][0].Float() != 0 {
		t.Fatalf("after master change: %v %v", r2.Tuples, err)
	}

	// Remove the old master's copy (now a replica).
	if err := e.RemoveReplicaOp(m.ID, oldMaster); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteQuery(context.Background(), sess, scanSumQuery(tbl)); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveSmokeUnderMixedLoad(t *testing.T) {
	cfg := fastConfig(ModeProteus, 2)
	cfg.Adapt.Interval = time.Millisecond
	cfg.Adapt.MinSplitRows = 16
	e := New(cfg)
	defer e.Close()
	tbl, err := e.CreateTable(TableSpec{Name: "items", Cols: testCols, MaxRows: 100000, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	for i := int64(0); i < 400; i++ {
		rows = append(rows, schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(i), types.NewInt64(i % 10), types.NewFloat64(1), types.NewString("x"),
		}})
	}
	if err := e.LoadRows(context.Background(), tbl.ID, rows); err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession()
	for round := 0; round < 30; round++ {
		for i := 0; i < 10; i++ {
			row := int64((round*10 + i) % 100) // skewed to first quarter
			if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
				updateOp(tbl, row, 2, types.NewFloat64(1)),
			}}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.ExecuteQuery(context.Background(), sess, scanSumQuery(tbl))
		if err != nil {
			t.Fatal(err)
		}
		if res.Tuples[0][1].Int() != 400 {
			t.Fatalf("round %d: count = %v (data corrupted by adaptation)", round, res.Tuples[0])
		}
		e.Advisor.pass() // beside the background passes
	}
	if err := e.Dir.Validate(tbl.ID, e.TableMaxRow(tbl.ID), len(testCols)); err != nil {
		t.Errorf("tiling invariant broken: %v", err)
	}
	if e.Advisor.Changes() == 0 {
		t.Error("no layout change ran under the load")
	}
}

func TestModesReportAndStats(t *testing.T) {
	e, tbl := newTestEngine(t, ModeTiDB, 2, 2, 50)
	if e.Mode() != ModeTiDB {
		t.Error("mode wrong")
	}
	sess := e.NewSession()
	if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
		updateOp(tbl, 1, 2, types.NewFloat64(3)),
	}}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats().Class(ClassOLTP)
	if st.Count != 1 || st.Avg() <= 0 {
		t.Errorf("stats = %+v", st)
	}
	// TiDB mode must have charged Raft traffic.
	if e.Net.TotalBytes() == 0 {
		t.Error("no network traffic charged")
	}
}

func TestLRUTieringUnderMemoryPressure(t *testing.T) {
	// A baseline (non-adaptive) engine over capacity must demote its
	// coldest partitions to disk and keep hot ones in memory (§6.2 LRU).
	e, tbl := newTestEngine(t, ModeRowStore, 2, 8, 800)
	sess := e.NewSession()
	// Heat up the first partition's rows.
	warm := func() {
		for i := 0; i < 40; i++ {
			if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
				readOp(tbl, int64(i%50), 0),
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm()
	perSite := e.MasterMemUsage() / int64(len(e.Sites))
	e.SetMemCapacityPerSite(perSite / 2) // force heavy pressure
	deadline := time.After(3 * time.Second)
	for {
		counts := e.LayoutCounts()
		if counts["row/disk"] > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("no demotion happened: %v", counts)
		case <-time.After(50 * time.Millisecond):
			warm()
		}
	}
	// Data stays correct across tier changes.
	res, err := e.ExecuteQuery(context.Background(), sess, scanSumQuery(tbl))
	if err != nil || res.Tuples[0][1].Int() != 800 {
		t.Fatalf("post-demotion scan: %v %v", res.Tuples, err)
	}
}

// TestAdvisorPassRelievesMemoryPressure: under ModeProteus a capacity
// below the sites' usage is the advisor's to relieve — one planning pass
// brings every site under its capacity with the freeing options, traced
// with the capacity reason, and the data reads back unchanged.
func TestAdvisorPassRelievesMemoryPressure(t *testing.T) {
	e, tbl := newFaultEngine(t, 2, 4, 800, func(cfg *Config) { cfg.Adapt.Interval = -1 })
	var most int64
	for _, s := range e.Sites {
		most = max(most, s.MemUsage())
	}
	capacity := most * 10 / 11
	e.SetMemCapacityPerSite(capacity)
	e.Advisor.pass()
	if e.Advisor.Changes() == 0 {
		t.Fatal("the pass freed nothing")
	}
	for _, s := range e.Sites {
		if used := s.MemUsage(); used >= capacity {
			t.Errorf("site %d: %d bytes in memory after the pass, capacity %d", s.ID, used, capacity)
		}
	}
	for _, d := range e.Trace.Recent(16) {
		if d.Trigger != "capacity" || !d.Executed {
			t.Errorf("decision %+v: want an executed capacity change", d)
		}
	}
	res, err := e.ExecuteQuery(context.Background(), e.NewSession(), scanSumQuery(tbl))
	if err != nil || res.Tuples[0][1].Int() != 800 {
		t.Fatalf("after the pass: %v %v", res.Tuples, err)
	}
}

// TestModeReplicaErrorReachesCreateTable: a Janus table whose mandated
// column replica cannot be installed — its site is down — fails to create
// instead of coming up with a copy missing.
func TestModeReplicaErrorReachesCreateTable(t *testing.T) {
	e := New(fastConfig(ModeJanus, 2))
	t.Cleanup(e.Close)
	if err := e.CrashSite(1); err != nil {
		t.Fatal(err)
	}
	_, err := e.CreateTable(TableSpec{Name: "t", Cols: testCols, MaxRows: 100, Partitions: 1})
	if !errors.Is(err, faults.ErrSiteDown) {
		t.Fatalf("CreateTable with the replica site down: %v, want ErrSiteDown", err)
	}
}
