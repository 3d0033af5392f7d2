package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"testing"
	"time"

	"proteus/internal/query"
)

// Same seed, same op list, byte for byte; another seed, another list. The
// two transaction workloads are the ones with non-trivial generation (the
// query-only lists are rotations of seed-drawn constants).
func TestOpListDeterministic(t *testing.T) {
	for _, name := range []string{"oltp-rmw", "htap-mixed"} {
		w, ok := findWorkload(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		hash := func(seed int64) string {
			in, err := w.build(buildEnv{seed: seed, n: 200})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			defer in.close()
			return hashOps(in.streams)
		}
		a, b, c := hash(7), hash(7), hash(8)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %s then %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 both hashed to %s", name, a)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(d, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile([]time.Duration(nil), 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d, want 0", got)
	}
}

// 100 operations: the first 50 complete every 1 ms, the last 50 every 2 ms.
func TestSliceAccounting(t *testing.T) {
	var s []sample
	at := time.Duration(0)
	for i := 0; i < 100; i++ {
		step := time.Millisecond
		if i >= 50 {
			step = 2 * time.Millisecond
		}
		at += step
		s = append(s, sample{end: at, lat: step})
	}
	// Completion order must not matter to the accounting.
	s[3], s[97] = s[97], s[3]
	rates := sliceRates(s)
	if len(rates) != nSlices {
		t.Fatalf("%d slices, want %d", len(rates), nSlices)
	}
	for k, r := range rates {
		want := 1000.0
		if k >= 5 {
			want = 500
		}
		if math.Abs(r-want) > 1e-6 {
			t.Errorf("slice %d runs at %v ops/s, want %v", k, r, want)
		}
	}
	if got := lateOverEarly(s); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("late_over_early = %v, want 0.5", got)
	}
}

// The quartile rule is Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
}

// An open-loop request is timed from when it was due, so a stalled server
// inflates the latency of the requests queued behind the stall, and the
// generator's lateness is reported beside it.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const n, stallAt = 60, 5
	const stall = 100 * time.Millisecond
	s := &stream{name: "gen", rate: 200, period: 1} // one request per 5 ms
	for i := 0; i < n; i++ {
		s.ops = append(s.ops, op{txn: &query.Txn{}})
	}
	server := func(si, i int) error {
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	}
	run := runTimed([]*stream{s}, []string{"req"}, server, time.Minute, nil, -1, nil)
	if run.failed != 0 || len(run.samples[0]) != n {
		t.Fatalf("%d failed, %d samples", run.failed, len(run.samples[0]))
	}
	lat := run.samples[0]
	if lat[stallAt-1].lat > stall/4 {
		t.Errorf("request before the stall took %v", lat[stallAt-1].lat)
	}
	// The request right behind the stall was due 5 ms into it: a clock
	// started at send would show microseconds, the due-time clock ~95 ms.
	if got := lat[stallAt+1].lat; got < stall*8/10 {
		t.Errorf("request queued behind a %v stall shows %v; latency must run from the due instant", stall, got)
	}
	if got := run.lateness[stallAt+1]; got < stall*8/10 {
		t.Errorf("generator lateness behind the stall = %v, want about %v", got, stall)
	}
	// The backlog drains: the last request is on time again.
	if got := lat[n-1].lat; got > stall/4 {
		t.Errorf("last request still shows %v after the backlog drained", got)
	}
}

// A closed-loop section stopped by the wall cap counts what it did not
// start as failed.
func TestWallCapCountsUnfinishedAsFailed(t *testing.T) {
	s := &stream{name: "client", period: 1}
	for i := 0; i < 50; i++ {
		s.ops = append(s.ops, op{txn: &query.Txn{}})
	}
	slow := func(si, i int) error { time.Sleep(2 * time.Millisecond); return nil }
	run := runTimed([]*stream{s}, []string{"req"}, slow, 20*time.Millisecond, nil, -1, nil)
	if run.attempted != 50 || run.failed == 0 || run.failed+int64(len(run.samples[0])) != 50 {
		t.Errorf("attempted %d, failed %d, completed %d", run.attempted, run.failed, len(run.samples[0]))
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// Every metric the benchmark can print has a well-formed name, a unit, and
// the same entry in BENCHMARK.json; every workload is declared there too.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(plane string, have, declared []metricDef) {
		if len(have) != len(declared) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", plane, len(have), len(declared))
		}
		byName := map[string]metricDef{}
		for _, d := range declared {
			byName[d.Name] = d
		}
		seen := map[string]bool{}
		for _, m := range have {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: metric %q unit %q is malformed", plane, m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("%s: metric %q listed twice", plane, m.Name)
			}
			seen[m.Name] = true
			if d, ok := byName[m.Name]; !ok {
				t.Errorf("%s: metric %q is not in BENCHMARK.json", plane, m.Name)
			} else if d != m {
				t.Errorf("%s: metric %q is %+v here, %+v in BENCHMARK.json", plane, m.Name, m, d)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q here, %q in BENCHMARK.json (or their reasons differ)", i, w.name, spec.Workloads[i].Name)
		}
	}
	// The result line carries exactly the declared names.
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		res := newResult(defs)
		if len(res.Metrics) != len(defs) {
			t.Errorf("result carries %d metrics for %d definitions", len(res.Metrics), len(defs))
		}
	}
}

// Shapes of one workload must differ in more than their constants: the plan
// cache keys on the tree's rendering, which leaves constants out, and hands
// a colliding shape the other shape's predicate.
func TestScanShapesHaveDistinctPlanKeys(t *testing.T) {
	qs := scanQueries(1, drawScanConsts(rand.New(rand.NewSource(1))))
	if len(qs) != len(scanShapes) || len(scanSQL) != len(scanShapes) {
		t.Fatalf("%d queries and %d SQL forms for %d shapes", len(qs), len(scanSQL), len(scanShapes))
	}
	seen := map[string]string{}
	for i, q := range qs {
		key := q.Root.String()
		if other, dup := seen[key]; dup {
			t.Errorf("shapes %s and %s share the plan-cache key %s", other, scanShapes[i], key)
		}
		seen[key] = scanShapes[i]
	}
}
