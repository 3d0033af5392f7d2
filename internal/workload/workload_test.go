// Package workload_test runs the three HTAP benchmarks end to end on small
// engines, in every system mode, through the scenario runner, checking
// execution correctness and the runner's accounting.
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
	"proteus/internal/scenario"
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

// run drives a spec on the scenario runner, two sites on the wall clock
// with one OLAP per round and no think time, and fails the test on any
// error or broken invariant.
func run(t *testing.T, s scenario.Spec) *scenario.Report {
	t.Helper()
	s.Name, s.Sites, s.OLAPEvery, s.ThinkTimeUS = t.Name(), 2, 1, -1
	s.NetBaseLatencyUS, s.ReplicationIntervalUS = 1, 1000
	rep, err := scenario.Run(s, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Canonical.Counts.Errors; n != 0 {
		t.Fatalf("%d errors", n)
	}
	if !rep.Passed() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	return rep
}

func TestYCSBAllModes(t *testing.T) {
	for _, mode := range []string{"proteus", "rowstore", "columnstore", "janus", "tidb"} {
		t.Run(mode, func(t *testing.T) {
			rep := run(t, scenario.Spec{Workload: "ycsb", Mode: mode, Rows: 2000, Partitions: 4,
				Clients: 4, RoundsPerClient: 3, OLTPPerRound: 6, Seed: 1})
			c, m := rep.Canonical.Counts, rep.Metrics
			if c.OLTPAcked != 4*3*6 || c.OLAPAcked != 12 {
				t.Errorf("counts: %d oltp %d olap", c.OLTPAcked, c.OLAPAcked)
			}
			if m["oltp_ms"] <= 0 || m["olap_ms"] <= 0 {
				t.Error("latencies not measured")
			}
			if m["oltp_tps"] <= 0 {
				t.Error("throughput not measured")
			}
		})
	}
}

// TestYCSBShiftingSkew moves the skew centre half-way through the key
// space from the start, as a phase.
func TestYCSBShiftingSkew(t *testing.T) {
	run(t, scenario.Spec{Workload: "ycsb", Rows: 2000, Partitions: 4, Clients: 2, RoundsPerClient: 2,
		OLTPPerRound: 10, Seed: 2, Phases: []scenario.Phase{{AtMS: 0, HotShift: 1}}})
}

func TestYCSBFreshnessVariant(t *testing.T) {
	rep := run(t, scenario.Spec{Workload: "freshness", Rows: 2000, Partitions: 4, Clients: 2,
		RoundsPerClient: 2, OLTPPerRound: 6, Seed: 3})
	// Every query reads back a stamp, so each one measures a gap.
	if _, ok := rep.Metrics["freshness_ms"]; !ok || rep.Canonical.Counts.OLAPAcked != 4 {
		t.Errorf("freshness gap not measured: %v over %d queries", rep.Metrics["freshness_ms"], rep.Canonical.Counts.OLAPAcked)
	}
}

func TestCHBenchAllModes(t *testing.T) {
	for _, mode := range []string{"proteus", "rowstore", "columnstore", "janus"} {
		t.Run(mode, func(t *testing.T) {
			rep := run(t, scenario.Spec{Workload: "ch", Mode: mode, Rows: 10, Clients: 4,
				RoundsPerClient: 2, OLTPPerRound: 8, Seed: 4})
			if c := rep.Canonical.Counts; c.OLTPAcked != 64 || c.OLAPAcked != 8 {
				t.Errorf("counts: %d/%d", c.OLTPAcked, c.OLAPAcked)
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
	all := 100
	run(t, scenario.Spec{Workload: "ch", CrossWarehousePct: &all, Clients: 2, RoundsPerClient: 2,
		OLTPPerRound: 10, Seed: 7})
}

func TestTwitterAllModes(t *testing.T) {
	for _, mode := range []string{"proteus", "rowstore", "columnstore"} {
		t.Run(mode, func(t *testing.T) {
			rep := run(t, scenario.Spec{Workload: "twitter", Mode: mode, Clients: 4, RoundsPerClient: 2,
				OLTPPerRound: 10, Seed: 8})
			if n := rep.Canonical.Counts.OLAPAcked; n != 8 {
				t.Errorf("olap count = %d", n)
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

// TestHarnessTimelineAndTimedRun: a timed run fills ten timeline buckets
// that together count every acknowledged transaction.
func TestHarnessTimelineAndTimedRun(t *testing.T) {
	rep := run(t, scenario.Spec{Workload: "ycsb", Rows: 2000, Partitions: 4, Clients: 2,
		DurationMS: 200, OLTPPerRound: 6, Seed: 10})
	var total float64
	for i := 0; i < 10; i++ {
		v, ok := rep.Metrics[fmt.Sprintf("timeline_tps.%d", i)]
		if !ok {
			t.Fatalf("timeline bucket %d missing", i)
		}
		total += v * 0.02 // a tenth of the 200 ms window
	}
	if acked := rep.Canonical.Counts.OLTPAcked; acked == 0 || math.Round(total) != float64(acked) {
		t.Errorf("timeline total %.1f != %d acknowledged", total, acked)
	}
}
