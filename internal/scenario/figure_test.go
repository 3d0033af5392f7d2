package scenario

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"proteus/internal/vclock"
)

// tiny is a smaller scale than quick, so that every figure file runs in
// tier-1 time.
var tiny = Preset{
	Base:    figureBase(2, 2, 2),
	Sizes:   map[string]int64{"ycsb": 1500, "freshness": 1500, "ch": 6, "twitter": 150},
	Repeats: 1,
}

// TestEveryFigureRunsAtTinyScale runs each file under scenarios/figures/ at
// the tiny preset, its timed windows cut to a tenth, and checks that it
// emits one result per point, a table, and one verdict line per predicate
// and mix.
func TestEveryFigureRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figures are seconds-long; skipped with -short")
	}
	paths, err := filepath.Glob("../../scenarios/figures/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no figure files: %v", err)
	}
	for _, path := range paths {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".json"), func(t *testing.T) {
			f, err := LoadFigure(path, tiny)
			if err != nil {
				t.Fatal(err)
			}
			f.DurationMS /= 10
			for i := range f.Phases {
				f.Phases[i].AtMS /= 10
			}
			pts, err := f.points()
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			results, verdicts, err := f.Run(&out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if len(results) != len(pts) {
				t.Errorf("%d results for %d points", len(results), len(pts))
			}
			for _, r := range results {
				if r.Figure != f.Name || r.Metrics["completion_s"] <= 0 {
					t.Errorf("result %+v", r)
				}
			}
			if !strings.Contains(out.String(), "== "+f.Name+": ") {
				t.Errorf("no table:\n%s", out.String())
			}
			lines := 0
			for _, l := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(l, "PASS "+f.Name) || strings.HasPrefix(l, "FAIL "+f.Name) {
					lines++
				}
			}
			if lines != len(verdicts) || len(verdicts) < len(f.Predicates) {
				t.Errorf("%d verdict lines, %d verdicts for %d predicates:\n%s", lines, len(verdicts), len(f.Predicates), out.String())
			}
		})
	}
}

// TestPredicateVerdicts holds both predicate forms to their definitions:
// a pass, a fail, a tie at the margin, a missing point, and each metric
// direction.
func TestPredicateVerdicts(t *testing.T) {
	f := &Figure{Spec: Spec{Name: "t"}, Systems: []string{"proteus", "rowstore", "columnstore"}, Mixes: []int{10, 3}}
	all, err := f.points()
	if err != nil {
		t.Fatal(err)
	}
	// cellsOf gives each point its system's value at its mix, leaving out
	// the points of the system named by drop.
	cellsOf := func(metric, drop string, vals map[string][2]float64) ([]point, []map[string]float64) {
		var pts []point
		var cells []map[string]float64
		for _, pt := range all {
			if pt.system != drop {
				pts = append(pts, pt)
				cells = append(cells, map[string]float64{metric: vals[pt.system][slices.Index(f.Mixes, pt.mix)]})
			}
		}
		return pts, cells
	}
	passes := func(vs []Verdict) []bool {
		var out []bool
		for _, v := range vs {
			out = append(out, v.Pass)
		}
		return out
	}
	static := []string{"rowstore", "columnstore"}
	cases := []struct {
		name string
		p    Predicate
		vals map[string][2]float64
		want []bool
	}{
		// Lower is better: within margin of the smallest, a tie at it passes.
		{"lower", Predicate{Metric: "completion_s", System: "proteus", BestOf: static, Margin: 0.5},
			map[string][2]float64{"proteus": {1.5, 1.6}, "rowstore": {1, 1}, "columnstore": {2, 3}}, []bool{true, false}},
		// Higher is better: within margin of the largest.
		{"higher", Predicate{Metric: "oltp_tps", System: "proteus", BestOf: static, Margin: 0.5},
			map[string][2]float64{"proteus": {50, 49}, "rowstore": {100, 100}, "columnstore": {10, 10}}, []bool{true, false}},
		// A trend runs along the mixes when there is no axis: 100 → 50 is a
		// fall of exactly the margin.
		{"rises", Predicate{Metric: "oltp_tps", Trend: "rises", Margin: 0.5},
			map[string][2]float64{"proteus": {100, 50}, "rowstore": {100, 49}, "columnstore": {1, 2}}, []bool{true, false, true}},
		{"falls", Predicate{Metric: "freshness_ms", Trend: "falls", System: "proteus", Margin: 0.5},
			map[string][2]float64{"proteus": {100, 150}, "rowstore": {1, 1000}, "columnstore": {1, 1000}}, []bool{true}},
	}
	for _, c := range cases {
		pts, cells := cellsOf(c.p.Metric, "", c.vals)
		vs := c.p.verdicts(f, pts, cells)
		if got := passes(vs); !slices.Equal(got, c.want) {
			t.Errorf("%s: verdicts %v, want %v: %v", c.name, got, c.want, vs)
		}
		for _, v := range vs {
			if !strings.HasPrefix(v.Line, map[bool]string{true: "PASS t ", false: "FAIL t "}[v.Pass]) {
				t.Errorf("%s: line %q", c.name, v.Line)
			}
		}
		// Without a system's points, every comparison (the subject or one of
		// the best_of set is missing) and every trend of that system fails
		// as a missing point.
		for _, drop := range []string{"proteus", "rowstore"} {
			n := 0
			pts, cells = cellsOf(c.p.Metric, drop, c.vals)
			for _, v := range c.p.verdicts(f, pts, cells) {
				if c.p.Trend == "" || strings.Contains(v.Line, drop) {
					n++
					if v.Pass || !strings.Contains(v.Line, "missing point") {
						t.Errorf("%s: without %s's points: %s", c.name, drop, v.Line)
					}
				}
			}
			if n == 0 && (c.p.Trend == "" || c.p.System == "" || c.p.System == drop) {
				t.Errorf("%s: no verdict without %s's points", c.name, drop)
			}
		}
	}
}

// TestParseFigureOverPreset: a figure file lays its fields over the
// preset without writing into it, a window replaces the preset's rounds,
// the preset caps the repeats, and what the figure varies is checked.
func TestParseFigureOverPreset(t *testing.T) {
	doc := `{"name":"f","workload":"ycsb","systems":["proteus","rowstore"],"mixes":[10,3],
		"axis":{"clients":[1,2,3]},"repeats":3,"duration_ms":100,"assert":{"max_error_rate":0.5},
		"metrics":["oltp_tps"],"predicates":[{"metric":"oltp_tps","system":"proteus","best_of":["rowstore"],"margin":0.1}]}`
	f, err := ParseFigure([]byte(doc), Presets["quick"])
	if err != nil {
		t.Fatal(err)
	}
	if f.RoundsPerClient != 0 || f.DurationMS != 100 || f.Rows != 4000 || f.Repeats != 1 || f.Sites != 2 {
		t.Errorf("figure spec %+v, repeats %d", f.Spec, f.Repeats)
	}
	if *f.Assert.MaxErrorRate != 0.5 || *Presets["quick"].Base.Assert.MaxErrorRate != 0 {
		t.Error("the file's assert block wrote into the preset")
	}
	if pts, _ := f.points(); len(pts) != 3*2*2 || pts[7].spec.Clients != 2 || pts[7].spec.OLTPPerRound != 3 {
		t.Errorf("points %+v", pts)
	}
	if full, _ := ParseFigure([]byte(doc), Presets["full"]); full.Repeats != 3 || full.Rows != 30000 {
		t.Errorf("full scale: repeats %d rows %d", full.Repeats, full.Rows)
	}
	bad := []string{
		`{"name":"f","systems":[],"metrics":[]}`,                                  // no system
		`{"name":"f","systems":["warehouse"]}`,                                    // unknown mode
		`{"name":"f","systems":["proteus"],"axis":{"clients":[1],"sites":[1,2]}}`, // ragged axis
		`{"name":"f","systems":["proteus"],"axis":{"nonsense":[1]}}`,              // not a spec field
		`{"name":"f","systems":["proteus"],"colour":1}`,                           // unknown field
		`{"name":"f","systems":["proteus"],"predicates":[{"metric":"joy","trend":"rises"}]}`,
		`{"name":"f","systems":["proteus"],"predicates":[{"metric":"oltp_tps","trend":"wobbles"}]}`,
		`{"name":"f","systems":["proteus"],"predicates":[{"metric":"oltp_tps","system":"proteus"}]}`,
		`{"name":"f","systems":["proteus"],"predicates":[{"metric":"oltp_tps","system":"proteus","best_of":["tidb"]}]}`,
	}
	for _, b := range bad {
		if _, err := ParseFigure([]byte(b), Presets["quick"]); err == nil {
			t.Errorf("accepted %s", b)
		}
	}
}

// TestCompletionRunCounts: a rounds run does exactly rounds × mix
// transactions and one query per round per client.
func TestCompletionRunCounts(t *testing.T) {
	rep, err := Run(Spec{Name: "c", Sites: 1, Rows: 50, Partitions: 2, Clients: 3, RoundsPerClient: 5,
		OLTPPerRound: 4, OLAPEvery: 1, ThinkTimeUS: -1, Seed: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, m := rep.Canonical.Counts, rep.Metrics
	if c.Errors != 0 || c.OLAPAcked != 15 || c.OLTPAcked != 60 || !rep.Passed() {
		t.Errorf("counts %+v, violations %v", c, rep.Violations)
	}
	if m["completion_s"] <= 0 || m["oltp_tps"] <= 0 || m["olap_p95_ms"] < m["olap_ms"]/2 || m["query_ms.sum"] <= 0 {
		t.Errorf("metrics %v", m)
	}
}

// TestTimedRunHonorsDeadline: a timed run on the wall clock stops at its
// window.
func TestTimedRunHonorsDeadline(t *testing.T) {
	start := time.Now()
	rep, err := Run(Spec{Name: "d", Sites: 1, Rows: 50, Partitions: 2, Clients: 2, DurationMS: 150,
		OLTPPerRound: 2, OLAPEvery: 1, ThinkTimeUS: -1, Seed: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timed run took %v", elapsed)
	}
	if rep.Canonical.Counts.OLTPAcked == 0 || rep.Metrics["completion_s"] < 0.15 {
		t.Errorf("counts %+v, completion %v", rep.Canonical.Counts, rep.Metrics["completion_s"])
	}
}

// TestPhasesShiftTheMix: a phase's oltp_per_round replaces the spec's from
// its start, and a warm-up leaves the measured counts alone.
func TestPhasesShiftTheMix(t *testing.T) {
	sim := vclock.NewSim(vclock.SimConfig{})
	defer sim.Stop()
	rep, err := Run(Spec{Name: "p", Sites: 1, Rows: 50, Partitions: 2, Clients: 1, RoundsPerClient: 4,
		OLTPPerRound: 1, OLAPEvery: 2, WarmUp: 0.5, Seed: 3, Phases: []Phase{{AtMS: 0, OLTPPerRound: 3}}}, Options{Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Canonical.Counts; c.OLTPAcked != 12 || c.OLAPAcked != 2 || c.AckedLost != 0 || c.RowsVerified == 0 {
		t.Errorf("counts %+v", c)
	}
}
