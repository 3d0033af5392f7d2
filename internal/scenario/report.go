package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/obs"
)

// Counts is the workload outcome tally. In rounds mode with faults off
// these are fully determined by the spec and seed, which is what the
// clock-equivalence and determinism tests key on.
type Counts struct {
	OLTPAttempted int64 `json:"oltp_attempted"`
	OLTPAcked     int64 `json:"oltp_acked"`
	OLAPAttempted int64 `json:"olap_attempted"`
	OLAPAcked     int64 `json:"olap_acked"`
	Shed          int64 `json:"shed"`
	Errors        int64 `json:"errors"`
	RowsVerified  int64 `json:"rows_verified"`
	AckedLost     int64 `json:"acked_lost"`
	Converged     bool  `json:"converged"`
}

// CanonicalReport is the deterministic slice of a run's outcome: no
// wall-clock durations, no latency quantiles, nothing that depends on
// host speed. Two virtual-clock runs of a controlled scenario (rounds
// mode, single client, no faults) must produce byte-identical
// CanonicalJSON.
type CanonicalReport struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Mode     string `json:"mode"`
	Sites    int    `json:"sites"`
	Clients  int    `json:"clients"`
	Counts   Counts `json:"counts"`
	Messages int64  `json:"messages"`
	Bytes    int64  `json:"bytes"`
}

// CanonicalJSON renders the canonical report with stable field order.
func (c CanonicalReport) CanonicalJSON() []byte {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil { // struct of scalars: cannot fail
		panic(err)
	}
	return append(b, '\n')
}

// Report is the full run outcome: the canonical counts plus clocks,
// latency quantiles, fault bookkeeping, simulator internals and any
// invariant violations.
type Report struct {
	Canonical CanonicalReport

	Virtual time.Duration // virtual elapsed (equals wall on Wall clock)
	Wall    time.Duration // real elapsed

	// Metrics are the measured pass's named figures (see Spec.metrics):
	// its latencies, what the invariants bound, and what a figure's table
	// and predicates read.
	Metrics map[string]float64

	FaultsApplied int
	ConvergeLag   string // last lagging replica when convergence failed

	// SimAdvances/SimIdleAdvances report the virtual clock's event-loop
	// work (zero on the wall clock).
	SimAdvances     uint64
	SimIdleAdvances uint64

	Violations []string
}

// Passed reports whether every asserted invariant held.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// Summary renders a one-line human-readable digest.
func (r *Report) Summary() string {
	c := r.Canonical.Counts
	status := "PASS"
	if !r.Passed() {
		status = "FAIL"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %s  virtual=%v wall=%v  oltp=%d/%d olap=%d/%d shed=%d err=%d",
		r.Canonical.Scenario, status, r.Virtual.Round(time.Millisecond), r.Wall.Round(time.Millisecond),
		c.OLTPAcked, c.OLTPAttempted, c.OLAPAcked, c.OLAPAttempted, c.Shed, c.Errors)
	fmt.Fprintf(&b, "  verified=%d lost=%d converged=%v", c.RowsVerified, c.AckedLost, c.Converged)
	fmt.Fprintf(&b, "  p99(oltp)=%.2fms msgs=%d", r.Metrics["oltp_p99_ms"], r.Canonical.Messages)
	if r.FaultsApplied > 0 {
		fmt.Fprintf(&b, " faults=%d", r.FaultsApplied)
	}
	if r.SimAdvances > 0 {
		fmt.Fprintf(&b, " advances=%d(%d idle)", r.SimAdvances, r.SimIdleAdvances)
	}
	return b.String()
}

// metrics names what the measured pass did, for the figures:
//   - completion_s, the pass's length; oltp_tps, acknowledged
//     transactions per second of it;
//   - oltp_ms and olap_ms, average latencies of admitted work;
//     oltp_p99_ms, olap_p95_ms, olap_p99_ms;
//   - freshness_ms, the average freshness gap (Appendix B.1): the newest
//     acknowledged commit before a query began minus the oldest stamp it
//     returned;
//   - query_ms.<query>, average latency per OLAP query while OLTP runs;
//   - timeline_tps.<tenth>, transactions per second per tenth of a timed
//     run;
//   - class_ms.<class> and class_count.<class>, time and count per
//     operation class; plan_hits and plan_misses of the plan cache;
//   - changes, layout changes the advisor executed, and
//     changes_reverted, those that undid a change made within the
//     advisor's horizon; rmse_pct.<op>, the cost model's relative error
//     per operation; layouts.<layout>, the copies in each layout at the
//     end. These and the plan cache's counts
//     run from the engine's start, warm-up included.
func (s Spec) metrics(e *cluster.Engine, wl *loaded, stats []*clientState, measured time.Duration, oltp, olap obs.LatencySnapshot) map[string]float64 {
	m := map[string]float64{
		"completion_s": measured.Seconds(),
		"oltp_ms":      msOf(oltp.Avg),
		"oltp_p99_ms":  msOf(oltp.P99),
		"olap_ms":      msOf(olap.Avg),
		"olap_p95_ms":  msOf(olap.P95),
		"olap_p99_ms":  msOf(olap.P99),
	}
	var acked, gapN int64
	var gap time.Duration
	var timeline [timelineBuckets]int64
	queryTime := make([]time.Duration, len(wl.queries))
	queryN := make([]int64, len(wl.queries))
	for _, st := range stats {
		acked += st.oltpAcked
		gap += st.gap
		gapN += st.gapN
		for i := range timeline {
			timeline[i] += st.timeline[i]
		}
		for i := range queryTime {
			queryTime[i] += st.queryTime[i]
			queryN[i] += st.queryN[i]
		}
	}
	if measured > 0 {
		m["oltp_tps"] = float64(acked) / measured.Seconds()
	}
	if gapN > 0 {
		m["freshness_ms"] = msOf(gap / time.Duration(gapN))
	}
	for i, name := range wl.queries {
		if queryN[i] > 0 {
			m["query_ms."+name] = msOf(queryTime[i] / time.Duration(queryN[i]))
		}
	}
	if s.DurationMS > 0 {
		tenth := ms(s.DurationMS).Seconds() / timelineBuckets
		for i, n := range timeline {
			m[fmt.Sprintf("timeline_tps.%d", i)] = float64(n) / tenth
		}
	}
	for c := cluster.OpClass(0); c < cluster.NumOpClasses; c++ {
		if st := e.Stats().Class(c); st.Count > 0 {
			m["class_ms."+c.String()] = msOf(st.TotalTime)
			m["class_count."+c.String()] = float64(st.Count)
		}
	}
	hits, misses := e.Planner.Plans.Stats()
	m["plan_hits"], m["plan_misses"] = float64(hits), float64(misses)
	if e.Advisor != nil {
		m["changes"] = float64(e.Advisor.Changes())
		m["changes_reverted"] = float64(e.Advisor.Reverted())
	}
	for op, rmse := range e.Model.Accuracy() {
		m["rmse_pct."+op.String()] = 100 * rmse
	}
	for l, n := range e.LayoutCounts() {
		m["layouts."+l] = float64(n)
	}
	return m
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
