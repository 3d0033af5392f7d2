package scenario

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"proteus/internal/faults"

	"proteus/internal/vclock"
)

// equivSpec is a small, fully deterministic rounds-mode scenario: fixed
// round counts per client, background replication and maintenance off, no
// replicas, advisor off, no faults, no admission. Every message the run
// sends is driven by a workload op whose count is fixed by the spec, so
// Wall and Sim runs of the same seed must agree exactly.
func equivSpec() Spec {
	off := false
	return Spec{
		Name:                  "equiv",
		Seed:                  99,
		Sites:                 2,
		Partitions:            4,
		Rows:                  200,
		Clients:               2,
		RoundsPerClient:       25,
		OLTPPerRound:          2,
		OLAPEvery:             5,
		ThinkTimeUS:           200,
		ReplicationIntervalUS: -1,
		MaintainIntervalUS:    -1,
		Advisor:               &off,
	}.WithDefaults()
}

// TestClockEquivalence runs the same seeded scenario on the wall clock and
// on the simulated clock and requires identical workload counts, identical
// verification results, and identical interconnect traffic: the virtual
// clock changes how time passes, never what the engine does.
func TestClockEquivalence(t *testing.T) {
	spec := equivSpec()

	wall, err := Run(spec, Options{Clock: vclock.Wall{}})
	if err != nil {
		t.Fatalf("wall run: %v", err)
	}
	sim := vclock.NewSim(vclock.SimConfig{})
	defer sim.Stop()
	virt, err := Run(spec, Options{Clock: sim})
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}

	if wall.Canonical.Counts != virt.Canonical.Counts {
		t.Errorf("counts diverge:\n wall %+v\n sim  %+v", wall.Canonical.Counts, virt.Canonical.Counts)
	}
	if wall.Canonical.Messages != virt.Canonical.Messages || wall.Canonical.Bytes != virt.Canonical.Bytes {
		t.Errorf("traffic diverges: wall %d msgs/%d B, sim %d msgs/%d B",
			wall.Canonical.Messages, wall.Canonical.Bytes, virt.Canonical.Messages, virt.Canonical.Bytes)
	}
	if !wall.Passed() || !virt.Passed() {
		t.Errorf("invariants: wall %v, sim %v", wall.Violations, virt.Violations)
	}
	want := int64(spec.Clients * spec.RoundsPerClient * spec.OLTPPerRound)
	if virt.Canonical.Counts.OLTPAcked != want {
		t.Errorf("oltp acked = %d, want exactly %d (rounds mode)", virt.Canonical.Counts.OLTPAcked, want)
	}
}

// TestSimDeterminism requires two fresh Sim runs of the same spec to
// produce byte-identical canonical reports.
func TestSimDeterminism(t *testing.T) {
	spec := equivSpec()
	var reports [][]byte
	for i := 0; i < 2; i++ {
		sim := vclock.NewSim(vclock.SimConfig{})
		rep, err := Run(spec, Options{Clock: sim})
		sim.Stop()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		reports = append(reports, rep.Canonical.CanonicalJSON())
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("sim runs diverge:\n run0: %s\n run1: %s", reports[0], reports[1])
	}
}

// TestSpecDefaultsAndValidate pins the defaulting and rejection rules the
// scenario corpus relies on.
func TestSpecDefaultsAndValidate(t *testing.T) {
	s := Spec{Name: "d", Seed: 1, Sites: 3, DurationMS: 10}.WithDefaults()
	if s.Partitions != 3 || s.Rows != 600 || s.Clients != 3 {
		t.Errorf("defaults: partitions=%d rows=%d clients=%d", s.Partitions, s.Rows, s.Clients)
	}
	if s.OLTPPerRound != 4 || s.OLAPEvery != 4 || s.ThinkTimeUS != 1000 {
		t.Errorf("workload defaults: %d/%d/%d", s.OLTPPerRound, s.OLAPEvery, s.ThinkTimeUS)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}

	bad := []Spec{
		{Seed: 1, Sites: 2, DurationMS: 10},                                          // no name
		{Name: "x", Sites: 0, DurationMS: 10},                                        // no sites
		{Name: "x", Sites: 2},                                                        // no duration or rounds
		{Name: "x", Sites: 2, DurationMS: 10, RoundsPerClient: 5},                    // both
		{Name: "x", Sites: 2, DurationMS: 10, Mode: "warehouse"},                     // unknown mode
		{Name: "x", Sites: 2, DurationMS: 10, HotFraction: 1.5},                      // bad fraction
		{Name: "x", Sites: 2, RoundsPerClient: 5, Faults: &FaultSpec{Crashes: 1}},    // faults need a window
		{Name: "x", Sites: 2, DurationMS: 10, Phases: []Phase{{AtMS: 5}, {AtMS: 5}}}, // non-increasing
	}
	for i, b := range bad {
		if err := b.WithDefaults().Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestDefaultsApplied pins the paper workloads' defaults: ycsb keys its
// table over four partitions per site, every workload has its own size,
// and a negative think time means none.
func TestDefaultsApplied(t *testing.T) {
	for _, c := range []struct {
		workload   string
		partitions int
		rows       int64
	}{{"", 2, 400}, {"ycsb", 8, 20000}, {"freshness", 8, 20000}, {"ch", 2, 30}, {"twitter", 2, 500}} {
		s := Spec{Name: "d", Sites: 2, Workload: c.workload, RoundsPerClient: 1, ThinkTimeUS: -1}.WithDefaults()
		if s.Partitions != c.partitions || s.Rows != c.rows || s.thinkFor(0, Phase{}) != 0 {
			t.Errorf("%q: partitions %d rows %d think %v", c.workload, s.Partitions, s.Rows, s.thinkFor(0, Phase{}))
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%q: %v", c.workload, err)
		}
	}
	for _, bad := range []Spec{
		{Name: "x", Sites: 2, RoundsPerClient: 1, Workload: "tpch"},
		{Name: "x", Sites: 2, RoundsPerClient: 1, Ablate: "everything"},
		{Name: "x", Sites: 2, RoundsPerClient: 1, WarmUp: -1},
	} {
		if err := bad.WithDefaults().Validate(); err == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

// TestParseRejectsMalformedJSON covers the Parse wrapper.
func TestParseRejectsMalformedJSON(t *testing.T) {
	if _, err := Parse([]byte(`{"name":`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := Parse([]byte(`{"name":"p","sites":2,"rounds_per_client":3,"seed":4}`)); err != nil {
		t.Errorf("minimal valid doc rejected: %v", err)
	}
}

// TestShedWithoutHintIsCounted: the runner holds every shed to the
// admission contract — a faults.OverloadError with its RetryAfter hint; a
// bare ErrOverload counts as a shed that broke it.
func TestShedWithoutHintIsCounted(t *testing.T) {
	var st clientState
	st.countShed(&faults.OverloadError{Tenant: "t", RetryAfter: time.Millisecond})
	st.countShed(fmt.Errorf("wrapped: %w", &faults.OverloadError{RetryAfter: time.Millisecond}))
	st.countShed(fmt.Errorf("%w: closed", faults.ErrOverload))
	if st.shed != 3 || st.unhinted != 1 {
		t.Fatalf("shed %d, unhinted %d; want 3 and 1", st.shed, st.unhinted)
	}
}
