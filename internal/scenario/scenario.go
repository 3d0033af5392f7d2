// Package scenario loads and runs declarative whole-cluster simulation
// scenarios: a JSON file names the cluster shape (sites, partitions,
// replication), the workload (the built-in items table, or the paper's
// YCSB, CH-benCHmark and Twitter benchmarks) and its mix (closed-loop
// clients issuing OLTP transactions and OLAP queries with think times),
// the QoS tenants, a reproducible fault schedule and the invariants the
// run must uphold. The runner drives the real engine — cluster.New,
// ExecuteTxn, ExecuteQuery, ApplyFault — on any vclock.Clock, so the same
// scenario replays in wall time or, under vclock.Sim, compresses hours of
// simulated traffic into seconds. The paper's figures are scenarios too
// (figure.go): each file under scenarios/figures/ varies systems, mixes
// and one axis over a preset scale and states the paper's claim as
// predicates. cmd/proteus-sim is the CLI front end; the scenarios/ corpus
// at the repo root is the CI regression suite.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"proteus/internal/admission"
	"proteus/internal/asa"
	"proteus/internal/cluster"
	"proteus/internal/simnet"
)

// Phase is one step of a load shift: from AtMS onward the hot data starts
// HotShift/clients of the way through the key space — for items the hot
// client window starts at client index HotShift, for ycsb the zipf skew
// centre moves there — shifting write and scan pressure across
// partitions (and therefore sites) as phases progress. OLTPPerRound, when
// set, changes the mix from AtMS onward.
type Phase struct {
	AtMS         int64 `json:"at_ms"`
	HotShift     int   `json:"hot_shift"`
	OLTPPerRound int   `json:"oltp_per_round,omitempty"`
}

// Limits mirrors admission.Limits for JSON loading.
type Limits struct {
	Rate  float64 `json:"rate"`
	Burst float64 `json:"burst,omitempty"`
}

// AdmissionSpec turns on the token-bucket QoS front end. The zero/absent
// spec leaves the engine on AlwaysAdmit (no shedding, no drip ticker).
type AdmissionSpec struct {
	Rate               float64           `json:"rate"`
	Burst              float64           `json:"burst,omitempty"`
	MaxQueue           int               `json:"max_queue,omitempty"`
	MaxWaitUS          int64             `json:"max_wait_us,omitempty"`
	MaxCommitBacklog   int               `json:"max_commit_backlog,omitempty"`
	DripIntervalUS     int64             `json:"drip_interval_us,omitempty"`
	SnapshotIntervalUS int64             `json:"snapshot_interval_us,omitempty"`
	Tenants            map[string]Limits `json:"tenants,omitempty"`
}

// FaultSpec parameterizes the reproducible chaos schedule (generated via
// faults.NewSchedule from the scenario seed). Crashes=0 keeps the
// partition/heal pairs but drops crash events; Partitions=0 vice versa.
type FaultSpec struct {
	Crashes       int   `json:"crashes"`
	Partitions    int   `json:"partitions"`
	MinDowntimeMS int64 `json:"min_downtime_ms,omitempty"`
	MaxDowntimeMS int64 `json:"max_downtime_ms,omitempty"`
}

// AssertSpec is the invariant block checked after the run. ZeroAckedLoss
// and Convergence default to true; explicit false disables them.
type AssertSpec struct {
	// ZeroAckedLoss requires every acknowledged write to be readable with
	// its acknowledged value after the cluster heals.
	ZeroAckedLoss *bool `json:"zero_acked_loss,omitempty"`
	// Convergence requires every replica to reach its master's version.
	Convergence *bool `json:"convergence,omitempty"`
	// MaxErrorRate bounds errors/attempts (sheds excluded); nil disables.
	MaxErrorRate *float64 `json:"max_error_rate,omitempty"`
	// OLTPP99MaxMS bounds the admitted-work OLTP p99 latency (virtual
	// time); 0 disables.
	OLTPP99MaxMS float64 `json:"oltp_p99_max_ms,omitempty"`
	// MinOLTPAcked requires at least this many committed transactions.
	MinOLTPAcked int64 `json:"min_oltp_acked,omitempty"`
	// MinShed requires the admission controller to have shed at least
	// this many requests (overload scenarios prove shedding engages).
	MinShed int64 `json:"min_shed,omitempty"`
	// MinVirtualMS requires the virtual clock to have advanced at least
	// this far by the end of the run.
	MinVirtualMS int64 `json:"min_virtual_ms,omitempty"`
	// MaxWallSec bounds real elapsed time; 0 disables.
	MaxWallSec float64 `json:"max_wall_sec,omitempty"`
}

// Spec is one scenario file. Durations are integers in the unit their
// suffix names (_ms, _us); omitted fields take the defaults documented
// per field.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Seed        int64  `json:"seed"`
	// Mode is the engine architecture: proteus (default), rowstore,
	// columnstore, janus or tidb.
	Mode  string `json:"mode,omitempty"`
	Sites int    `json:"sites"`
	// Workload is what the clients run: items (default; single-row
	// updates on each client's own stripe of one table, read back after
	// the run), ycsb, ch, twitter, or freshness (Appendix B.1: writers
	// stamp 64 hot ycsb keys with the clock and every OLAP reads the
	// oldest stamp). The paper's workloads run under the §6.2 memory cap:
	// 1.5× each site's share of the loaded master copies.
	Workload string `json:"workload,omitempty"`
	// Partitions defaults to Sites (4 × Sites for ycsb and freshness; ch
	// and twitter place their own tables). Rows sizes the workload: table
	// rows for items (default 200 per partition), ycsb and freshness
	// (default 20000), orders loaded per district for ch (30), users for
	// twitter (500).
	Partitions int   `json:"partitions,omitempty"`
	Rows       int64 `json:"rows,omitempty"`
	// CrossWarehousePct is the share of ch transactions that touch a
	// remote warehouse (default 10).
	CrossWarehousePct *int `json:"cross_warehouse_pct,omitempty"`
	// ReplicateEach installs one column-format replica per partition at
	// the next site, giving crash scenarios something to fail over to.
	ReplicateEach bool `json:"replicate_each,omitempty"`

	// DurationMS runs the workload for a fixed virtual window; mutually
	// exclusive with RoundsPerClient, which runs every client for an
	// exact round count (deterministic op totals for equivalence tests).
	DurationMS      int64 `json:"duration_ms,omitempty"`
	RoundsPerClient int   `json:"rounds_per_client,omitempty"`

	// WarmUp runs WarmUp × the measured rounds (or window) first on the
	// same engine, unreported: the paper's long runs reach steady state,
	// second-scale ones need a ramp to be measured warm.
	WarmUp float64 `json:"warmup,omitempty"`

	Clients int `json:"clients"`
	// OLTPPerRound (default 4) transactions per round; every OLAPEvery-th
	// round (default 4, -1 disables) adds one OLAP query.
	OLTPPerRound int `json:"oltp_per_round,omitempty"`
	OLAPEvery    int `json:"olap_every,omitempty"`
	// ThinkTimeUS (default 1000, -1 none) is the think time per round.
	// Hot clients think ThinkTimeUS/HotBoost (default 4).
	ThinkTimeUS int64   `json:"think_time_us,omitempty"`
	HotBoost    float64 `json:"hot_boost,omitempty"`
	// HotFraction is the share of clients that are hot at a time; 0
	// disables the diurnal machinery.
	HotFraction float64 `json:"hot_fraction,omitempty"`
	Phases      []Phase `json:"phases,omitempty"`

	// NetBaseLatencyUS defaults to 50µs, NetBytesPerSec to 1 GiB/s.
	NetBaseLatencyUS int64   `json:"net_base_latency_us,omitempty"`
	NetBytesPerSec   float64 `json:"net_bytes_per_sec,omitempty"`
	// ReplicationIntervalUS defaults to 5000; -1 disables background
	// replication. MaintainIntervalUS defaults to 20000; -1 disables.
	ReplicationIntervalUS int64 `json:"replication_interval_us,omitempty"`
	MaintainIntervalUS    int64 `json:"maintain_interval_us,omitempty"`
	OpDeadlineMS          int64 `json:"op_deadline_ms,omitempty"`
	// Advisor false forces the ASA off even in proteus mode. Ablate
	// switches one adaptive technique off (the ablation study, §6.3.7):
	// vertical, horizontal, replication, compression, sorting or reuse.
	Advisor *bool  `json:"advisor,omitempty"`
	Ablate  string `json:"ablate,omitempty"`
	// AdvisorIntervalUS overrides the period of the advisor's planning
	// pass (default 50ms). Long low-churn scenarios coarsen it so
	// advisor planning CPU does not dominate the event loop.
	AdvisorIntervalUS int64 `json:"advisor_interval_us,omitempty"`
	// ConvergeTimeoutMS bounds the post-run convergence wait (virtual
	// time, default 30000).
	ConvergeTimeoutMS int64 `json:"converge_timeout_ms,omitempty"`

	Admission *AdmissionSpec `json:"admission,omitempty"`
	Faults    *FaultSpec     `json:"faults,omitempty"`
	Assert    AssertSpec     `json:"assert"`
}

// Load reads and validates a scenario file.
func Load(path string) (Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	return Parse(b)
}

// Parse decodes and validates a scenario document. An unknown field is
// an error, so a misspelt or retired knob fails instead of being ignored.
func Parse(b []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// WithDefaults fills unset fields.
func (s Spec) WithDefaults() Spec {
	keyed := s.Workload == "ycsb" || s.Workload == "freshness"
	if s.Partitions <= 0 {
		s.Partitions = s.Sites
		if keyed {
			s.Partitions *= 4
		}
	}
	if s.Rows <= 0 {
		if s.Rows = workloadRows[s.Workload]; s.Rows == 0 {
			s.Rows = 200 * int64(s.Partitions)
		}
	}
	if s.Clients <= 0 {
		s.Clients = s.Sites
	}
	if s.OLTPPerRound <= 0 {
		s.OLTPPerRound = 4
	}
	if s.OLAPEvery == 0 {
		s.OLAPEvery = 4
	}
	if s.ThinkTimeUS == 0 {
		s.ThinkTimeUS = 1000
	}
	if s.HotBoost <= 0 {
		s.HotBoost = 4
	}
	if s.NetBaseLatencyUS <= 0 {
		s.NetBaseLatencyUS = 50
	}
	if s.NetBytesPerSec <= 0 {
		s.NetBytesPerSec = 1 << 30
	}
	if s.ReplicationIntervalUS == 0 {
		s.ReplicationIntervalUS = 5000
	}
	if s.MaintainIntervalUS == 0 {
		s.MaintainIntervalUS = 20000
	}
	if s.ConvergeTimeoutMS <= 0 {
		s.ConvergeTimeoutMS = 30000
	}
	return s
}

// Validate rejects inconsistent specs.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("scenario: name is required")
	case s.Sites < 1:
		return fmt.Errorf("scenario %s: sites must be >= 1", s.Name)
	case s.DurationMS <= 0 && s.RoundsPerClient <= 0:
		return fmt.Errorf("scenario %s: one of duration_ms or rounds_per_client is required", s.Name)
	case s.DurationMS > 0 && s.RoundsPerClient > 0:
		return fmt.Errorf("scenario %s: duration_ms and rounds_per_client are mutually exclusive", s.Name)
	case s.Rows < int64(s.Partitions):
		return fmt.Errorf("scenario %s: rows (%d) < partitions (%d)", s.Name, s.Rows, s.Partitions)
	case s.HotFraction < 0 || s.HotFraction > 1:
		return fmt.Errorf("scenario %s: hot_fraction must be in [0,1]", s.Name)
	case s.Faults != nil && s.DurationMS <= 0:
		return fmt.Errorf("scenario %s: faults require duration_ms (schedule window)", s.Name)
	case s.WarmUp < 0:
		return fmt.Errorf("scenario %s: warmup must be >= 0", s.Name)
	}
	if _, err := parseMode(s.Mode); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if _, ok := workloadRows[s.Workload]; !ok && s.Workload != "" && s.Workload != "items" {
		return fmt.Errorf("scenario %s: unknown workload %q", s.Name, s.Workload)
	}
	if _, ok := ablations[s.Ablate]; !ok {
		return fmt.Errorf("scenario %s: unknown ablation %q", s.Name, s.Ablate)
	}
	for i := 1; i < len(s.Phases); i++ {
		if s.Phases[i].AtMS <= s.Phases[i-1].AtMS {
			return fmt.Errorf("scenario %s: phases must have strictly increasing at_ms", s.Name)
		}
	}
	return nil
}

func parseMode(m string) (cluster.Mode, error) {
	switch m {
	case "", "proteus":
		return cluster.ModeProteus, nil
	case "rowstore":
		return cluster.ModeRowStore, nil
	case "columnstore":
		return cluster.ModeColumnStore, nil
	case "janus":
		return cluster.ModeJanus, nil
	case "tidb":
		return cluster.ModeTiDB, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", m)
	}
}

// workloadRows is each paper workload's default size (Spec.Rows).
var workloadRows = map[string]int64{"ycsb": 20000, "freshness": 20000, "ch": 30, "twitter": 500}

// ablations switch one adaptive technique off.
var ablations = map[string]func(*asa.Flags){
	"":            func(*asa.Flags) {},
	"vertical":    func(f *asa.Flags) { f.VerticalSplit = false },
	"horizontal":  func(f *asa.Flags) { f.HorizontalSplit = false },
	"replication": func(f *asa.Flags) { f.Replication = false },
	"compression": func(f *asa.Flags) { f.Compression = false },
	"sorting":     func(f *asa.Flags) { f.Sorting = false },
	"reuse":       func(f *asa.Flags) { f.DecisionReuse = false },
}

func us(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
func ms(v int64) time.Duration { return time.Duration(v) * time.Millisecond }

// engineConfig maps the spec onto cluster.Config.
func (s Spec) engineConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Mode, _ = parseMode(s.Mode)
	cfg.NumSites = s.Sites
	cfg.Net = simnet.Config{BaseLatency: us(s.NetBaseLatencyUS), BytesPerSecond: s.NetBytesPerSec}
	cfg.FaultSeed = s.Seed
	if s.ReplicationIntervalUS < 0 {
		cfg.ReplicationInterval = 0
	} else {
		cfg.ReplicationInterval = us(s.ReplicationIntervalUS)
	}
	if s.MaintainIntervalUS < 0 {
		cfg.MaintainInterval = 0
	} else {
		cfg.MaintainInterval = us(s.MaintainIntervalUS)
	}
	if s.OpDeadlineMS > 0 {
		cfg.OpDeadline = ms(s.OpDeadlineMS)
	}
	if s.Advisor != nil && !*s.Advisor {
		cfg.Adapt.Interval = -1
		cfg.Adapt.Flags = asa.Flags{}
	} else {
		if s.AdvisorIntervalUS > 0 {
			cfg.Adapt.Interval = us(s.AdvisorIntervalUS)
		}
		ablations[s.Ablate](&cfg.Adapt.Flags)
	}
	if a := s.Admission; a != nil {
		cfg.Admission = admission.Config{
			Policy:           admission.TokenBucket,
			Default:          admission.Limits{Rate: a.Rate, Burst: a.Burst},
			MaxQueue:         a.MaxQueue,
			MaxWait:          us(a.MaxWaitUS),
			MaxCommitBacklog: a.MaxCommitBacklog,
			DripInterval:     us(a.DripIntervalUS),
			SnapshotInterval: us(a.SnapshotIntervalUS),
		}
		if len(a.Tenants) > 0 {
			cfg.Admission.Tenants = make(map[string]admission.Limits, len(a.Tenants))
			for name, l := range a.Tenants {
				cfg.Admission.Tenants[name] = admission.Limits{Rate: l.Rate, Burst: l.Burst}
			}
		}
	}
	return cfg
}

// tenantOf assigns clients to tenants round-robin over the sorted tenant
// names; without explicit tenants every client bills the default bucket.
func (s Spec) tenantOf(c int, names []string) string {
	if len(names) == 0 {
		return ""
	}
	return names[c%len(names)]
}

// phaseAt returns the phase in force at the given elapsed offset (the
// zero phase before the first).
func (s Spec) phaseAt(elapsed time.Duration) Phase {
	var cur Phase
	for _, p := range s.Phases {
		if elapsed >= ms(p.AtMS) {
			cur = p
		}
	}
	return cur
}

// thinkFor returns client c's think time in the given phase: hot-window
// clients (per the phase's shift) think 1/HotBoost of the base.
func (s Spec) thinkFor(c int, ph Phase) time.Duration {
	base := us(max(s.ThinkTimeUS, 0))
	if s.HotFraction <= 0 || s.Clients <= 0 {
		return base
	}
	shift := ph.HotShift
	hotN := int(math.Ceil(s.HotFraction * float64(s.Clients)))
	idx := ((c-shift)%s.Clients + s.Clients) % s.Clients
	if idx < hotN {
		return time.Duration(float64(base) / s.HotBoost)
	}
	return base
}
