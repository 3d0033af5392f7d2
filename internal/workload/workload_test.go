// Package workload_test runs the three HTAP benchmarks end to end on small
// engines, in every system mode, checking execution correctness and
// harness accounting.
package workload_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/harness"
	"proteus/internal/simnet"
	"proteus/internal/types"
	"proteus/internal/workload/chbench"
	"proteus/internal/workload/twitter"
	"proteus/internal/workload/ycsb"
)

func testEngine(t *testing.T, mode cluster.Mode, sites int) *cluster.Engine {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Mode = mode
	cfg.NumSites = sites
	cfg.Net = simnet.Config{}
	cfg.ReplicationInterval = time.Millisecond
	e := cluster.New(cfg)
	t.Cleanup(e.Close)
	return e
}

func smallYCSB() ycsb.Config {
	c := ycsb.DefaultConfig()
	c.Rows = 2000
	c.Partitions = 4
	return c
}

func TestYCSBAllModes(t *testing.T) {
	for _, mode := range []cluster.Mode{
		cluster.ModeProteus, cluster.ModeRowStore, cluster.ModeColumnStore,
		cluster.ModeJanus, cluster.ModeTiDB,
	} {
		t.Run(mode.String(), func(t *testing.T) {
			e := testEngine(t, mode, 2)
			w, err := ycsb.Setup(e, smallYCSB())
			if err != nil {
				t.Fatal(err)
			}
			res := harness.Run(e, func(i int, r *rand.Rand) harness.Client {
				return w.NewClient(i, r)
			}, harness.Config{Clients: 4, Mix: harness.Balanced, RoundsPerClient: 3, Seed: 1})
			if res.Errors != 0 {
				t.Fatalf("%d errors", res.Errors)
			}
			wantOLTP := int64(4 * 3 * harness.Balanced.OLTPPerOLAP)
			if res.OLTPCount != wantOLTP || res.OLAPCount != 12 {
				t.Errorf("counts: %d oltp %d olap", res.OLTPCount, res.OLAPCount)
			}
			if res.OLTPLatAvg <= 0 || res.OLAPLatAvg <= 0 {
				t.Error("latencies not measured")
			}
			if res.OLTPThroughput() <= 0 {
				t.Error("throughput not measured")
			}
		})
	}
}

func TestYCSBShiftingSkew(t *testing.T) {
	e := testEngine(t, cluster.ModeProteus, 2)
	w, err := ycsb.Setup(e, smallYCSB())
	if err != nil {
		t.Fatal(err)
	}
	w.SetSkewCenter(1000)
	res := harness.Run(e, func(i int, r *rand.Rand) harness.Client {
		return w.NewClient(i, r)
	}, harness.Config{Clients: 2, Mix: harness.OLTPHeavy, RoundsPerClient: 2, Seed: 2})
	if res.Errors != 0 {
		t.Fatalf("%d errors with shifted skew", res.Errors)
	}
}

func TestYCSBFreshnessVariant(t *testing.T) {
	cfg := smallYCSB()
	cfg.Freshness = true
	e := testEngine(t, cluster.ModeProteus, 2)
	w, err := ycsb.Setup(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := harness.Run(e, func(i int, r *rand.Rand) harness.Client {
		return w.NewClient(i, r)
	}, harness.Config{Clients: 2, Mix: harness.Balanced, RoundsPerClient: 2, Seed: 3})
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	// The freshness OLAP result is a MIN over stamps (or initial strings).
	if res.LastOLAP.NumRows() != 1 {
		t.Errorf("freshness olap result: %v", res.LastOLAP)
	}
}

func TestCHBenchAllModes(t *testing.T) {
	for _, mode := range []cluster.Mode{cluster.ModeProteus, cluster.ModeRowStore, cluster.ModeColumnStore, cluster.ModeJanus} {
		t.Run(mode.String(), func(t *testing.T) {
			e := testEngine(t, mode, 2)
			cfg := chbench.DefaultConfig()
			cfg.LoadedOrdersPerDistrict = 10
			w, err := chbench.Setup(e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := harness.Run(e, func(i int, r *rand.Rand) harness.Client {
				return w.NewClient(i, r)
			}, harness.Config{Clients: 4, Mix: harness.Mix{Name: "bal", OLTPPerOLAP: 8}, RoundsPerClient: 2, Seed: 4})
			if res.Errors != 0 {
				t.Fatalf("%d errors", res.Errors)
			}
			if res.OLTPCount != 64 || res.OLAPCount != 8 {
				t.Errorf("counts: %d/%d", res.OLTPCount, res.OLAPCount)
			}
		})
	}
}

// TestCHForcedSpillMatchesInMemory loads CH identically into two
// column-store engines, one with a 4 KiB join build budget that pushes
// the batch joins through the grace-partitioned spill path, and requires
// all eight analytical queries to answer alike on both: the same rows
// after sorting, floats within 1e-6 relative (a spilled join sums its
// partials in another order).
func TestCHForcedSpillMatchesInMemory(t *testing.T) {
	run := func(budget int64) ([]exec.Rel, int64) {
		cfg := cluster.DefaultConfig()
		cfg.Mode = cluster.ModeColumnStore
		cfg.NumSites = 2
		cfg.Net = simnet.Config{}
		cfg.JoinSpillBudget = budget
		e := cluster.New(cfg)
		defer e.Close()
		ch := chbench.DefaultConfig()
		ch.LoadedOrdersPerDistrict = 60
		w, err := chbench.Setup(e, ch)
		if err != nil {
			t.Fatal(err)
		}
		sess := e.NewSession()
		rng := rand.New(rand.NewSource(99))
		before := exec.ReadJoinStats().SpillPartitions
		res := make([]exec.Rel, chbench.NumQueries)
		for i := range res {
			if res[i], err = e.ExecuteQuery(context.Background(), sess, w.Query(i, rng)); err != nil {
				t.Fatalf("q%d: %v", i, err)
			}
		}
		return res, exec.ReadJoinStats().SpillPartitions - before
	}
	mem, memSpills := run(0)
	spilled, spills := run(4 << 10)
	if memSpills != 0 {
		t.Errorf("default-budget engine spilled %d partitions", memSpills)
	}
	if spills == 0 {
		t.Fatal("no join spilled under a 4 KiB build budget")
	}
	for i := range mem {
		if err := relsApprox(spilled[i], mem[i]); err != nil {
			t.Errorf("q%d: spilled answer differs from in-memory: %v", i, err)
		}
	}
}

// relsApprox compares two relations ignoring row order: equal after
// sorting, floats within 1e-6 relative.
func relsApprox(got, want exec.Rel) error {
	if len(got.Tuples) != len(want.Tuples) {
		return fmt.Errorf("%d rows, want %d", len(got.Tuples), len(want.Tuples))
	}
	g, w := sortedTuples(got), sortedTuples(want)
	for i := range w {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %d: width %d, want %d", i, len(g[i]), len(w[i]))
		}
		for c := range w[i] {
			a, b := g[i][c], w[i][c]
			if a.K == types.KindFloat64 || b.K == types.KindFloat64 {
				af, bf := a.Float(), b.Float()
				if af == bf || math.Abs(af-bf) <= 1e-6*math.Max(math.Abs(af), math.Abs(bf)) {
					continue
				}
			} else if types.Equal(a, b) {
				continue
			}
			return fmt.Errorf("row %d col %d: %v, want %v", i, c, a, b)
		}
	}
	return nil
}

func sortedTuples(r exec.Rel) [][]types.Value {
	ts := append([][]types.Value(nil), r.Tuples...)
	sort.Slice(ts, func(i, j int) bool {
		for c := range ts[i] {
			if cmp := types.Compare(ts[i][c], ts[j][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return ts
}

func TestCHQueriesAllShapesExecute(t *testing.T) {
	e := testEngine(t, cluster.ModeProteus, 2)
	cfg := chbench.DefaultConfig()
	w, err := chbench.Setup(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession()
	r := rand.New(rand.NewSource(5))
	for qn := 0; qn < chbench.NumQueries; qn++ {
		res, err := e.ExecuteQuery(context.Background(), sess, w.Query(qn, r))
		if err != nil {
			t.Fatalf("q%d: %v", qn, err)
		}
		if res.NumRows() == 0 {
			t.Errorf("q%d returned no rows", qn)
		}
	}
}

func TestCHQ6AndQ14Semantics(t *testing.T) {
	e := testEngine(t, cluster.ModeProteus, 2)
	cfg := chbench.DefaultConfig()
	w, err := chbench.Setup(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession()
	r := rand.New(rand.NewSource(6))
	// q6 (index 1): one SUM row with a positive revenue (delivered lines
	// exist in the window).
	res, err := e.ExecuteQuery(context.Background(), sess, w.Query(1, r))
	if err != nil || res.NumRows() != 1 {
		t.Fatalf("q6: %v %v", res, err)
	}
	if res.Tuples[0][0].Float() <= 0 {
		t.Errorf("q6 revenue = %v", res.Tuples[0][0])
	}
	// q14 (index 2): promotional items are 1 in 10; the join must produce
	// a positive count well below the total orderline count.
	res, err = e.ExecuteQuery(context.Background(), sess, w.Query(2, r))
	if err != nil || res.NumRows() != 1 {
		t.Fatalf("q14: %v %v", res, err)
	}
	cnt := res.Tuples[0][1].Int()
	if cnt <= 0 {
		t.Errorf("q14 count = %d", cnt)
	}
}

func TestCHCrossWarehouseKnob(t *testing.T) {
	e := testEngine(t, cluster.ModeProteus, 2)
	cfg := chbench.DefaultConfig()
	cfg.CrossWarehousePct = 100
	w, err := chbench.Setup(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := harness.Run(e, func(i int, r *rand.Rand) harness.Client {
		return w.NewClient(i, r)
	}, harness.Config{Clients: 2, Mix: harness.OLTPHeavy, RoundsPerClient: 2, Seed: 7})
	if res.Errors != 0 {
		t.Fatalf("%d errors at 100%% cross-warehouse", res.Errors)
	}
}

func TestTwitterAllModes(t *testing.T) {
	for _, mode := range []cluster.Mode{cluster.ModeProteus, cluster.ModeRowStore, cluster.ModeColumnStore} {
		t.Run(mode.String(), func(t *testing.T) {
			e := testEngine(t, mode, 2)
			w, err := twitter.Setup(e, twitter.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			res := harness.Run(e, func(i int, r *rand.Rand) harness.Client {
				return w.NewClient(i, r)
			}, harness.Config{Clients: 4, Mix: harness.Mix{Name: "bal", OLTPPerOLAP: 10}, RoundsPerClient: 2, Seed: 8})
			if res.Errors != 0 {
				t.Fatalf("%d errors", res.Errors)
			}
			if res.OLAPCount != 8 {
				t.Errorf("olap count = %d", res.OLAPCount)
			}
		})
	}
}

func TestTwitterQueriesExecute(t *testing.T) {
	e := testEngine(t, cluster.ModeProteus, 2)
	w, err := twitter.Setup(e, twitter.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession()
	r := rand.New(rand.NewSource(9))
	z := rand.NewZipf(r, 1.4, 1, uint64(twitter.DefaultConfig().Users-1))
	for qn := 0; qn < twitter.NumQueries; qn++ {
		if _, err := e.ExecuteQuery(context.Background(), sess, w.Query(qn, r, z)); err != nil {
			t.Fatalf("q%d: %v", qn, err)
		}
	}
}

func TestHarnessTimelineAndTimedRun(t *testing.T) {
	e := testEngine(t, cluster.ModeProteus, 2)
	w, err := ycsb.Setup(e, smallYCSB())
	if err != nil {
		t.Fatal(err)
	}
	res := harness.Run(e, func(i int, r *rand.Rand) harness.Client {
		return w.NewClient(i, r)
	}, harness.Config{
		Clients: 2, Mix: harness.Balanced,
		Duration:       200 * time.Millisecond,
		TimelineBucket: 50 * time.Millisecond,
		Seed:           10,
	})
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if len(res.Timeline) < 2 {
		t.Errorf("timeline buckets = %d", len(res.Timeline))
	}
	var total int64
	for _, b := range res.Timeline {
		total += b.OLTP + b.OLAP
	}
	if total != res.OLTPCount+res.OLAPCount {
		t.Errorf("timeline total %d != counts %d", total, res.OLTPCount+res.OLAPCount)
	}
}

func TestCI95(t *testing.T) {
	mean, half := harness.CI95([]float64{10, 10, 10})
	if mean != 10 || half != 0 {
		t.Errorf("ci = %f ± %f", mean, half)
	}
	mean, half = harness.CI95([]float64{8, 12})
	if mean != 10 || half <= 0 {
		t.Errorf("ci = %f ± %f", mean, half)
	}
	if m, h := harness.CI95(nil); m != 0 || h != 0 {
		t.Errorf("empty ci = %f ± %f", m, h)
	}
}
