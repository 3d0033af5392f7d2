package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// Figure is one of the paper's figures as a file under scenarios/figures/:
// a spec laid over a preset scale, what the figure varies — systems, mixes
// and at most one more axis — how often each point runs, the table's
// columns, and the paper's claim as predicates.
type Figure struct {
	Spec
	Systems []string `json:"systems"` // engine modes compared
	// Mixes are OLTP transactions per OLAP query (default: the spec's).
	Mixes []int `json:"mixes,omitempty"`
	// Axis is the one further dimension: spec fields and the values they
	// take together, point by point.
	Axis map[string][]json.RawMessage `json:"axis,omitempty"`
	// Repeats runs each point on seeds seed, seed+1, ...; the table and
	// the predicates read the medians.
	Repeats int `json:"repeats,omitempty"`
	// Metrics are the table's columns: names of Spec.metrics, or a prefix
	// such as query_ms for all metrics under it.
	Metrics    []string    `json:"metrics"`
	Predicates []Predicate `json:"predicates,omitempty"`
}

// Predicate is one claim over a metric's medians, in one of two forms:
//   - System is within Margin of the best of BestOf, in the metric's
//     direction, per mix and axis value;
//   - the metric's Trend ("rises" or "falls") holds along the axis (the
//     mixes, without one): no step goes against it by more than Margin,
//     per system (only System, when set) and mix.
type Predicate struct {
	Metric string   `json:"metric"`
	System string   `json:"system,omitempty"`
	BestOf []string `json:"best_of,omitempty"`
	Margin float64  `json:"margin"`
	Trend  string   `json:"trend,omitempty"`
}

// better names the metrics a predicate may compare and which way is better.
var better = map[string]float64{"completion_s": -1, "oltp_tps": 1, "olap_ms": -1, "freshness_ms": -1}

// Preset is one scale the figures run at: the spec every figure file is
// laid over, each workload's rows (Spec.Rows), and a cap on repeats (0:
// the figure's own).
type Preset struct {
	Base    Spec
	Sizes   map[string]int64
	Repeats int
}

// figureBase is the spec every figure point starts from: the scale's
// sites, clients and rounds; the paper runs' engine — 20 µs links,
// replication every 2 ms, maintenance every 10 ms; no think time, one
// OLAP per round; and no failed operation.
func figureBase(sites, clients, rounds int) Spec {
	noErrors := 0.0
	return Spec{Sites: sites, Clients: clients, RoundsPerClient: rounds, OLAPEvery: 1, ThinkTimeUS: -1,
		NetBaseLatencyUS: 20, ReplicationIntervalUS: 2000, MaintainIntervalUS: 10000,
		Assert: AssertSpec{MaxErrorRate: &noErrors}}
}

// Presets are the figures' scales: quick for smoke runs, full for the
// reported numbers.
var Presets = map[string]Preset{
	"quick": {figureBase(2, 4, 3), map[string]int64{"ycsb": 4000, "freshness": 4000, "ch": 10, "twitter": 300}, 1},
	"full":  {figureBase(3, 9, 8), map[string]int64{"ycsb": 30000, "freshness": 30000, "ch": 40, "twitter": 800}, 0},
}

// IsFigure reports whether a scenario document is a figure file.
func IsFigure(b []byte) bool {
	var probe struct{ Systems []string }
	return json.Unmarshal(b, &probe) == nil && probe.Systems != nil
}

// LoadFigure reads a figure file over the preset.
func LoadFigure(path string, p Preset) (*Figure, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseFigure(b, p)
}

// ParseFigure decodes a figure document over the preset: its base spec and
// the workload's rows first, then every field the file sets. A file that
// sets duration_ms runs timed instead of in rounds.
func ParseFigure(b []byte, p Preset) (*Figure, error) {
	var probe struct{ Workload string }
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("figure: %w", err)
	}
	f := &Figure{Spec: p.Base}
	if r := p.Base.Assert.MaxErrorRate; r != nil {
		v := *r // the file's assert block must not write into the preset
		f.Assert.MaxErrorRate = &v
	}
	f.Rows = p.Sizes[probe.Workload]
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(f); err != nil {
		return nil, fmt.Errorf("figure: %w", err)
	}
	if f.DurationMS > 0 {
		f.RoundsPerClient = 0
	}
	if f.Repeats = max(f.Repeats, 1); p.Repeats > 0 {
		f.Repeats = min(f.Repeats, p.Repeats)
	}
	if len(f.Systems) == 0 {
		return nil, fmt.Errorf("figure %s: systems is required", f.Name)
	}
	pts, err := f.points()
	if err != nil {
		return nil, err
	}
	for _, pt := range pts {
		if err := pt.spec.WithDefaults().Validate(); err != nil {
			return nil, err
		}
	}
	for _, pr := range f.Predicates {
		if err := pr.check(f); err != nil {
			return nil, fmt.Errorf("figure %s: predicate on %q: %w", f.Name, pr.Metric, err)
		}
	}
	return f, nil
}

func (p Predicate) check(f *Figure) error {
	_, known := better[p.Metric]
	switch {
	case !known || p.Margin < 0:
		return fmt.Errorf("needs a known metric and a margin >= 0")
	case p.Trend != "" && (p.Trend != "rises" && p.Trend != "falls" || len(p.BestOf) > 0):
		return fmt.Errorf("a trend rises or falls, without best_of")
	case p.Trend == "" && (!slices.Contains(f.Systems, p.System) || len(p.BestOf) == 0):
		return fmt.Errorf("needs a system of the figure and best_of, or a trend")
	}
	for _, sys := range p.BestOf {
		if !slices.Contains(f.Systems, sys) {
			return fmt.Errorf("best_of names %s, not a system of the figure", sys)
		}
	}
	return nil
}

// point is one cell of the figure: a system, a mix and an axis value.
type point struct {
	system string
	mix    int
	axis   map[string]json.RawMessage
	label  string // "mix=10 clients=4"
	spec   Spec
}

// mixes returns the figure's mixes, or the spec's own.
func (f *Figure) mixes() []int {
	if len(f.Mixes) > 0 {
		return f.Mixes
	}
	return []int{f.WithDefaults().OLTPPerRound}
}

// points expands the figure, axis value by mix by system.
func (f *Figure) points() ([]point, error) {
	var keys []string
	for k := range f.Axis {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := 1
	for i, k := range keys {
		if len(f.Axis[k]) == 0 || i > 0 && len(f.Axis[k]) != n {
			return nil, fmt.Errorf("figure %s: every axis field needs the same, non-zero number of values", f.Name)
		}
		n = len(f.Axis[k])
	}
	var pts []point
	for a := 0; a < n; a++ {
		base, axis, label := f.Spec, map[string]json.RawMessage{}, ""
		for _, k := range keys {
			dec := json.NewDecoder(strings.NewReader(fmt.Sprintf("{%q:%s}", k, f.Axis[k][a])))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&base); err != nil {
				return nil, fmt.Errorf("figure %s: axis %s: %w", f.Name, k, err)
			}
			axis[k], label = f.Axis[k][a], label+fmt.Sprintf(" %s=%s", k, f.Axis[k][a])
		}
		for _, mix := range f.mixes() {
			for _, sys := range f.Systems {
				s := base
				s.Mode, s.OLTPPerRound = sys, mix
				pts = append(pts, point{sys, mix, axis, fmt.Sprintf("mix=%d", mix) + label, s})
			}
		}
	}
	return pts, nil
}

// PointResult is one run of one point: a line of the figures' history.
type PointResult struct {
	Figure  string                     `json:"figure"`
	System  string                     `json:"system"`
	Mix     int                        `json:"mix"`
	Axis    map[string]json.RawMessage `json:"axis,omitempty"`
	Scale   string                     `json:"scale"`
	Seed    int64                      `json:"seed"`
	Repeat  int                        `json:"repeat"`
	Commit  string                     `json:"commit"`
	Metrics map[string]float64         `json:"metrics"`
}

// Verdict is one predicate's outcome for one mix or series.
type Verdict struct {
	Pass bool
	Line string
}

// Run runs every point Repeats times on the wall clock, then prints the
// table of medians and one verdict line per predicate and mix to w. A run
// that breaks its invariants is printed and counted in the error; the
// other runs go on.
func (f *Figure) Run(w io.Writer) ([]PointResult, []Verdict, error) {
	pts, err := f.points()
	if err != nil {
		return nil, nil, err
	}
	var results []PointResult
	cells := make([]map[string]float64, len(pts))
	broken := 0
	for i, pt := range pts {
		var runs []map[string]float64
		for r := 0; r < f.Repeats; r++ {
			s := pt.spec
			s.Seed += int64(r)
			rep, err := Run(s, Options{})
			if err != nil {
				return results, nil, fmt.Errorf("%s %s %s: %w", f.Name, pt.system, pt.label, err)
			}
			for _, v := range rep.Violations {
				fmt.Fprintf(w, "  violation: %s %s %s seed %d: %s\n", f.Name, pt.system, pt.label, s.Seed, v)
			}
			if !rep.Passed() {
				broken++
			}
			results = append(results, PointResult{Figure: f.Name, System: pt.system, Mix: pt.mix, Axis: pt.axis,
				Seed: s.Seed, Repeat: r, Metrics: rep.Metrics})
			runs = append(runs, rep.Metrics)
		}
		cells[i] = medians(runs)
	}
	f.printTable(w, pts, cells)
	var verdicts []Verdict
	for _, p := range f.Predicates {
		verdicts = append(verdicts, p.verdicts(f, pts, cells)...)
	}
	for _, v := range verdicts {
		fmt.Fprintln(w, v.Line)
	}
	if broken > 0 {
		err = fmt.Errorf("%s: %d runs broke their invariants", f.Name, broken)
	}
	return results, verdicts, err
}

// medians takes each metric's median over the runs that report it.
func medians(runs []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range runs {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		slices.Sort(vs)
		out[k] = (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
	}
	return out
}

// printTable prints one row per point, or one metric per line when the
// figure has a single point.
func (f *Figure) printTable(w io.Writer, pts []point, cells []map[string]float64) {
	have := map[string]bool{}
	for _, c := range cells {
		for k := range c {
			have[k] = true
		}
	}
	var cols []string
	for _, name := range f.Metrics {
		var under []string
		for k := range have {
			if k == name || strings.HasPrefix(k, name+".") {
				under = append(under, k)
			}
		}
		sort.Strings(under)
		cols = append(cols, under...)
	}
	fmt.Fprintf(w, "\n== %s: %s ==\n", f.Name, f.Description)
	if len(pts) == 1 {
		fmt.Fprintf(w, "  %s %s\n", pts[0].system, pts[0].label)
		for _, col := range cols {
			fmt.Fprintf(w, "  %-34s %.4g\n", col, cells[0][col])
		}
		return
	}
	fmt.Fprintf(w, "  %-12s %-30s", "system", "point")
	for _, col := range cols {
		fmt.Fprintf(w, " %12s", col)
	}
	for i, pt := range pts {
		fmt.Fprintf(w, "\n  %-12s %-30s", pt.system, pt.label)
		for _, col := range cols {
			if v, ok := cells[i][col]; ok {
				fmt.Fprintf(w, " %12.4g", v)
			} else {
				fmt.Fprintf(w, " %12s", "-")
			}
		}
	}
	fmt.Fprintln(w)
}

// verdicts evaluates the predicate over the points' medians.
func (p Predicate) verdicts(f *Figure, pts []point, cells []map[string]float64) []Verdict {
	// series holds the metric's values per system and group, in point
	// order: a group is a point's label for a comparison, and for a trend
	// its mix (or the whole figure, without an axis). NaN marks a point
	// that lacks the metric.
	type key struct{ system, group string }
	series := map[key][]float64{}
	var groups []string
	for i, pt := range pts {
		g := pt.label
		if p.Trend != "" && len(f.Axis) > 0 {
			g = fmt.Sprintf("mix=%d", pt.mix)
		} else if p.Trend != "" {
			g = "mixes"
		}
		if !slices.Contains(groups, g) {
			groups = append(groups, g)
		}
		v, ok := cells[i][p.Metric]
		if !ok {
			v = math.NaN()
		}
		series[key{pt.system, g}] = append(series[key{pt.system, g}], v)
	}
	dir, missing := better[p.Metric], func(vs []float64) bool { return len(vs) == 0 || slices.ContainsFunc(vs, math.IsNaN) }
	verdict := func(pass bool, format string, args ...any) Verdict {
		return Verdict{pass, fmt.Sprintf("%s %s ", map[bool]string{true: "PASS", false: "FAIL"}[pass], f.Name) + fmt.Sprintf(format, args...)}
	}
	var out []Verdict
	for _, g := range groups {
		if p.Trend == "" {
			xs, bests, bestSys := series[key{p.System, g}], []float64(nil), ""
			for _, sys := range p.BestOf {
				vs := series[key{sys, g}]
				if bestSys == "" || missing(vs) || !missing(bests) && vs[0]*dir > bests[0]*dir {
					bests, bestSys = vs, sys
				}
			}
			if missing(xs) || missing(bests) {
				out = append(out, verdict(false, "%s: %s %s: missing point", g, p.System, p.Metric))
				continue
			}
			x, best := xs[0], bests[0]
			pass := x <= best*(1+p.Margin)
			if dir > 0 {
				pass = x >= best*(1-p.Margin)
			}
			out = append(out, verdict(pass, "%s: %s %s %.4g within %g%% of the best of %v: %.4g (%s)",
				g, p.System, p.Metric, x, 100*p.Margin, p.BestOf, best, bestSys))
			continue
		}
		for _, sys := range f.Systems {
			vs := series[key{sys, g}]
			if p.System != "" && sys != p.System {
				continue
			}
			if missing(vs) {
				out = append(out, verdict(false, "%s: %s %s: missing point", g, sys, p.Metric))
				continue
			}
			pass, steps := true, []string{fmt.Sprintf("%.4g", vs[0])}
			for i := 1; i < len(vs); i++ {
				if p.Trend == "rises" {
					pass = pass && vs[i] >= vs[i-1]*(1-p.Margin)
				} else {
					pass = pass && vs[i] <= vs[i-1]*(1+p.Margin)
				}
				steps = append(steps, fmt.Sprintf("%.4g", vs[i]))
			}
			out = append(out, verdict(pass, "%s: %s %s %s within %g%%: %s", g, sys, p.Metric, p.Trend, 100*p.Margin, strings.Join(steps, " → ")))
		}
	}
	return out
}
