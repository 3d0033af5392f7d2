// bench_test.go holds testing.B benchmarks, one per paper table/figure
// (the full parameter sweeps are the figure scenarios under
// scenarios/figures/, run by `proteus-sim figure`; these benches measure
// the steady-state per-operation costs each artifact is built from), plus
// component micro-benchmarks for the storage layouts and operators, and
// Fig 3's load-independent update shape and scan answers as tests.
package proteus

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/disksim"
	"proteus/internal/exec"
	"proteus/internal/obs"
	"proteus/internal/partition"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
	"proteus/internal/workload/chbench"
	"proteus/internal/workload/twitter"
	"proteus/internal/workload/ycsb"
)

// --- Fig 3: row vs column microbenchmark ---------------------------------

func microPartition(b testing.TB, l storage.Layout, rows, cols int) *partition.Partition {
	b.Helper()
	kinds := make([]types.Kind, cols)
	for i := range kinds {
		kinds[i] = types.KindInt64
	}
	f := partition.Factory{Dev: disksim.New(disksim.Config{})}
	bounds := partition.Bounds{RowStart: 0, RowEnd: schema.RowID(rows), ColStart: 0, ColEnd: schema.ColID(cols)}
	p := partition.New(1, bounds, kinds, l, f)
	data := make([]schema.Row, rows)
	for i := range data {
		vals := make([]types.Value, cols)
		for c := range vals {
			vals[c] = types.NewInt64(int64(i*cols + c))
		}
		data[i] = schema.Row{ID: schema.RowID(i), Vals: vals}
	}
	if err := p.Load(data, 1); err != nil {
		b.Fatal(err)
	}
	return p
}

func benchUpdate(b *testing.B, l storage.Layout) {
	p := microPartition(b, l, 10000, 10)
	cols := make([]schema.ColID, 10)
	vals := make([]types.Value, 10)
	for i := range cols {
		cols[i] = schema.ColID(i)
		vals[i] = types.NewInt64(int64(-i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Update(p, schema.RowID(i%10000), cols, vals, uint64(i+2)); err != nil {
			b.Fatal(err)
		}
		// Bound retained MVCC versions/delta entries so the measurement
		// reflects steady-state update cost rather than unbounded history
		// (production engines GC old versions; see rowstore.Mem.GC).
		if i%8192 == 8191 {
			b.StopTimer()
			if _, _, err := p.Maintain(uint64(i+2), 0); err != nil {
				b.Fatal(err)
			}
			if err := p.ChangeLayout(l, partition.Factory{Dev: disksim.New(disksim.Config{})}, uint64(i+2)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

func benchScan(b *testing.B, l storage.Layout, sel float64) {
	p := microPartition(b, l, 10000, 10)
	var pred storage.Pred
	if sel < 1 {
		pred = storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(int64(100000 * sel))}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, _, _ := exec.Scan(p, []schema.ColID{1}, pred, storage.Latest)
		_ = rel
	}
}

// TestFig3UpdateBytes holds Fig 3a's shape on what no host load can move:
// the heap bytes an update writes. A row update copies one 80-byte row
// array; a column update gathers the row out of ten column arrays into
// boxed cells and copies those into the delta store. The wall-clock
// update and scan ratios are the BenchmarkFig3* benchmarks'.
func TestFig3UpdateBytes(t *testing.T) {
	const updates = 100
	perUpdate := func(l storage.Layout) uint64 {
		p := microPartition(t, l, 10000, 10)
		cols := make([]schema.ColID, 10)
		vals := make([]types.Value, 10)
		for i := range cols {
			cols[i] = schema.ColID(i)
			vals[i] = types.NewInt64(int64(-i))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for u := 0; u < updates; u++ {
			if _, err := exec.Update(p, schema.RowID(u), cols, vals, uint64(u+2)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / updates
	}
	row, col := perUpdate(storage.DefaultRowLayout()), perUpdate(storage.DefaultColumnLayout())
	if row >= col {
		t.Errorf("an update writes %d heap bytes under rows and %d under columns; rows should write fewer", row, col)
	}
}

// TestFig3ScansAgree runs Fig 3b's and 3c's scans (10,000 rows, 1 of 10
// columns, at 10% and 100% selectivity) on row and column storage and
// checks each returns the rows the predicate selects: the scans the
// BenchmarkFig3b*/3c* benchmarks time must answer alike on both layouts.
func TestFig3ScansAgree(t *testing.T) {
	for _, sel := range []float64{0.1, 1} {
		n := int64(10000 * sel)
		wantSum := 10*n*(n-1)/2 + n // column 1 of row i holds 10i+1
		var pred storage.Pred
		if sel < 1 {
			pred = storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(int64(100000 * sel))}}
		}
		for name, l := range map[string]storage.Layout{
			"row":    storage.DefaultRowLayout(),
			"column": storage.DefaultColumnLayout(),
		} {
			rel, _, _ := exec.Scan(microPartition(t, l, 10000, 10), []schema.ColID{1}, pred, storage.Latest)
			var sum int64
			for _, tup := range rel.Tuples {
				sum += tup[0].Int()
			}
			if int64(rel.NumRows()) != n || sum != wantSum {
				t.Errorf("%s scan at %.0f%%: %d rows summing to %d, want %d summing to %d",
					name, sel*100, rel.NumRows(), sum, n, wantSum)
			}
		}
	}
}

// BenchmarkFig3aUpdateRow measures Fig 3a's row-format update latency.
func BenchmarkFig3aUpdateRow(b *testing.B) { benchUpdate(b, storage.DefaultRowLayout()) }

// BenchmarkFig3aUpdateColumn measures Fig 3a's column-format update latency.
func BenchmarkFig3aUpdateColumn(b *testing.B) { benchUpdate(b, storage.DefaultColumnLayout()) }

// BenchmarkFig3bScanRow10 measures Fig 3b (row, 10% selectivity).
func BenchmarkFig3bScanRow10(b *testing.B) { benchScan(b, storage.DefaultRowLayout(), 0.1) }

// BenchmarkFig3bScanColumn10 measures Fig 3b (column, 10% selectivity).
func BenchmarkFig3bScanColumn10(b *testing.B) { benchScan(b, storage.DefaultColumnLayout(), 0.1) }

// BenchmarkFig3cScanRow100 measures Fig 3c (row, full scan).
func BenchmarkFig3cScanRow100(b *testing.B) { benchScan(b, storage.DefaultRowLayout(), 1) }

// BenchmarkFig3cScanColumn100 measures Fig 3c (column, full scan).
func BenchmarkFig3cScanColumn100(b *testing.B) { benchScan(b, storage.DefaultColumnLayout(), 1) }

// --- Engine fixtures ------------------------------------------------------

func benchEngine(b *testing.B, mode cluster.Mode) *cluster.Engine {
	b.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Mode = mode
	cfg.NumSites = 2
	cfg.Net = simnet.Config{}
	cfg.ReplicationInterval = time.Millisecond
	e := cluster.New(cfg)
	b.Cleanup(e.Close)
	return e
}

func benchYCSB(b *testing.B, mode cluster.Mode) (*cluster.Engine, *ycsb.Workload) {
	b.Helper()
	e := benchEngine(b, mode)
	cfg := ycsb.DefaultConfig()
	cfg.Rows = 4000
	cfg.Partitions = 8
	w, err := ycsb.Setup(e, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e, w
}

// --- Figs 8a/9: YCSB per-system round cost --------------------------------

// balancedYCSB is the balanced YCSB mix's transactions per query
// (scenarios/figures/fig8a.json's middle mix).
const balancedYCSB = 6

func benchYCSBRound(b *testing.B, mode cluster.Mode) {
	e, w := benchYCSB(b, mode)
	c := w.NewClient(0, rand.New(rand.NewSource(1)))
	sess := e.NewSession()
	e.Stats().Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteQuery(context.Background(), sess, c.OLAP()); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < balancedYCSB; k++ {
			if _, err := e.ExecuteTxn(context.Background(), sess, c.OLTP()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	oltp, olap, _ := e.Stats().Quantiles()
	b.ReportMetric(float64(oltp.P95), "oltp-p95-ns")
	b.ReportMetric(float64(olap.P95), "olap-p95-ns")
}

// BenchmarkFig8aYCSBRoundProteus measures one balanced YCSB round (Fig 8a/9).
func BenchmarkFig8aYCSBRoundProteus(b *testing.B) { benchYCSBRound(b, cluster.ModeProteus) }

// BenchmarkFig8aYCSBRoundRowStore is the RS baseline.
func BenchmarkFig8aYCSBRoundRowStore(b *testing.B) { benchYCSBRound(b, cluster.ModeRowStore) }

// BenchmarkFig8aYCSBRoundColumnStore is the CS baseline.
func BenchmarkFig8aYCSBRoundColumnStore(b *testing.B) { benchYCSBRound(b, cluster.ModeColumnStore) }

// BenchmarkFig8aYCSBRoundJanus is the Janus baseline.
func BenchmarkFig8aYCSBRoundJanus(b *testing.B) { benchYCSBRound(b, cluster.ModeJanus) }

// BenchmarkFig8aYCSBRoundTiDB is the TiDB-like baseline.
func BenchmarkFig8aYCSBRoundTiDB(b *testing.B) { benchYCSBRound(b, cluster.ModeTiDB) }

// --- Figs 8b/10: CH-benCHmark ---------------------------------------------

func benchCH(b *testing.B, mode cluster.Mode) (*cluster.Engine, *chbench.Workload) {
	b.Helper()
	e := benchEngine(b, mode)
	cfg := chbench.DefaultConfig()
	cfg.LoadedOrdersPerDistrict = 20
	w, err := chbench.Setup(e, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e, w
}

// BenchmarkFig8bCHTransaction measures one TPC-C transaction (Figs 8b/10a).
func BenchmarkFig8bCHTransaction(b *testing.B) {
	e, w := benchCH(b, cluster.ModeProteus)
	c := w.NewClient(0, rand.New(rand.NewSource(2)))
	sess := e.NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteTxn(context.Background(), sess, c.OLTP()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10bCHQuery measures each CH analytical query (Fig 10b).
func BenchmarkFig10bCHQuery(b *testing.B) {
	e, w := benchCH(b, cluster.ModeProteus)
	r := rand.New(rand.NewSource(3))
	sess := e.NewSession()
	for qn := 0; qn < chbench.NumQueries; qn++ {
		qn := qn
		b.Run(fmt.Sprintf("q%d", qn), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.ExecuteQuery(context.Background(), sess, w.Query(qn, r)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figs 8d/11: Twitter ---------------------------------------------------

// BenchmarkFig11TwitterRound measures one balanced Twitter round.
func BenchmarkFig11TwitterRound(b *testing.B) {
	e := benchEngine(b, cluster.ModeProteus)
	cfg := twitter.DefaultConfig()
	cfg.Users = 300
	w, err := twitter.Setup(e, cfg)
	if err != nil {
		b.Fatal(err)
	}
	c := w.NewClient(0, rand.New(rand.NewSource(4)))
	sess := e.NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteQuery(context.Background(), sess, c.OLAP()); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			if _, err := e.ExecuteTxn(context.Background(), sess, c.OLTP()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Fig 12: adaptation and scalability primitives -------------------------

// BenchmarkFig12LayoutChange measures one format change (§6.3.3 reports
// ~14 ms on the paper's testbed; scale differs here).
func BenchmarkFig12LayoutChange(b *testing.B) {
	e, _ := benchYCSB(b, cluster.ModeRowStore)
	tbl, _ := e.Catalog.TableByName("usertable")
	parts := e.Dir.TablePartitions(tbl.ID)
	layouts := []storage.Layout{storage.DefaultColumnLayout(), storage.DefaultRowLayout()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := parts[i%len(parts)]
		to := layouts[(i/len(parts))%2]
		if err := e.ChangeCopyLayout(m.ID, m.Master().Site, to); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 14: freshness probe ------------------------------------------------

// BenchmarkFig14FreshnessQuery measures the Appendix B.1 MIN-stamp probe.
func BenchmarkFig14FreshnessQuery(b *testing.B) {
	e := benchEngine(b, cluster.ModeProteus)
	cfg := ycsb.DefaultConfig()
	cfg.Rows = 4000
	w, err := ycsb.Setup(e, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sess := e.NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteQuery(context.Background(), sess, w.FreshnessQuery(64)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables 4/5: planning overheads -----------------------------------------

// BenchmarkTab5PlanTxn measures OLTP physical-plan generation (Table 5
// reports 0.18 ms average on the paper's testbed).
func BenchmarkTab5PlanTxn(b *testing.B) {
	e, w := benchYCSB(b, cluster.ModeProteus)
	c := w.NewClient(0, rand.New(rand.NewSource(5)))
	txns := make([]*query.Txn, 64)
	for i := range txns {
		txns[i] = c.OLTP()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Planner.PlanTxn(txns[i%len(txns)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTab5PlanQuery measures OLAP physical-plan generation with plan
// caching (Table 5 reports 12.7 ms without reuse benefits).
func BenchmarkTab5PlanQuery(b *testing.B) {
	e, w := benchYCSB(b, cluster.ModeProteus)
	c := w.NewClient(0, rand.New(rand.NewSource(6)))
	q := c.OLAP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Planner.PlanQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Observability -----------------------------------------------------------

// BenchmarkObsRecorderSteadyState measures one latency record with the
// ring already full — the regime where the old bounded-append sampler
// copied its whole 200k-sample window per record. The ring write is O(1)
// no matter how many records preceded it.
func BenchmarkObsRecorderSteadyState(b *testing.B) {
	r := obs.NewRecorder(1 << 16)
	for i := 0; i < r.Cap()+1; i++ {
		r.Record(time.Duration(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(time.Duration(i))
	}
}

// BenchmarkObsRecorderParallel measures contended recording: every client
// goroutine records into the same per-class window on the request path.
func BenchmarkObsRecorderParallel(b *testing.B) {
	r := obs.NewRecorder(1 << 16)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Record(time.Microsecond)
		}
	})
}

// --- Component micro-benchmarks ---------------------------------------------

// BenchmarkHashJoin measures the hash-join operator.
func BenchmarkHashJoin(b *testing.B) {
	l, r := joinInputs(5000, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := exec.HashJoin(l, r, []int{0}, []int{0})
		_ = out
	}
}

func joinInputs(nl, nr int) (exec.Rel, exec.Rel) {
	l := exec.Rel{Cols: []string{"k", "g"}}
	for i := 0; i < nl; i++ {
		l.Tuples = append(l.Tuples, []types.Value{types.NewInt64(int64(i % nr)), types.NewInt64(int64(i % 16))})
	}
	r := exec.Rel{Cols: []string{"k"}}
	for i := 0; i < nr; i++ {
		r.Tuples = append(r.Tuples, []types.Value{types.NewInt64(int64(i))})
	}
	return l, r
}
