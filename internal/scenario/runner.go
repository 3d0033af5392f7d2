package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/admission"
	"proteus/internal/cluster"
	"proteus/internal/faults"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/vclock"
)

// Options configures one run of a scenario.
type Options struct {
	// Clock is the time source: nil or vclock.Wall{} replays the scenario
	// in real time; a *vclock.Sim compresses the virtual window into
	// however long the event loop takes.
	Clock vclock.Clock
	// Logf receives progress lines (nil silences them).
	Logf func(format string, args ...any)
}

// clientState is one closed-loop client's private tally for one pass.
type clientState struct {
	oltpAttempted, oltpAcked int64
	olapAttempted, olapAcked int64
	shed, errs               int64
	unhinted                 int64 // sheds without a RetryAfter hint
	// queryTime and queryN sum each OLAP query's latency, by its place in
	// the workload's query cycle.
	queryTime []time.Duration
	queryN    []int64
	// timeline counts acknowledged transactions per tenth of a timed run.
	timeline [timelineBuckets]int64
	// gap and gapN sum the freshness gaps the client's queries saw.
	gap  time.Duration
	gapN int64
}

// timelineBuckets divides a timed run into tenths.
const timelineBuckets = 10

// countShed tallies one overload error and whether it broke the shed
// contract: every shed is a faults.OverloadError, which tells the client
// when to retry.
func (st *clientState) countShed(err error) {
	st.shed++
	var oe *faults.OverloadError
	if !errors.As(err, &oe) {
		st.unhinted++
	}
}

// Run executes the scenario against a freshly built engine on the given
// clock and returns the outcome report. The error return covers setup
// failures only; invariant violations land in Report.Violations.
func Run(spec Spec, opt Options) (*Report, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	clk := vclock.OrWall(opt.Clock)

	cfg := spec.engineConfig()
	cfg.Clock = opt.Clock
	e := cluster.New(cfg)
	defer e.Close()

	wl, err := spec.load(e, clk)
	if err != nil {
		return nil, err
	}
	if spec.ReplicateEach && spec.Sites > 1 {
		for _, m := range e.Dir.All() {
			target := simnet.SiteID((int(m.Master().Site) + 1) % spec.Sites)
			if err := e.AddReplicaOp(m.ID, target, storage.DefaultColumnLayout()); err != nil {
				return nil, fmt.Errorf("replicate partition %d: %w", m.ID, err)
			}
		}
	}

	var tenants []string
	if spec.Admission != nil {
		for name := range spec.Admission.Tenants {
			tenants = append(tenants, name)
		}
		sort.Strings(tenants)
	}

	if spec.WarmUp > 0 { // fresh clients on other draws than the measured pass's
		warm := spec
		warm.RoundsPerClient = int(max(1, float64(spec.RoundsPerClient)*spec.WarmUp))
		if spec.DurationMS > 0 {
			warm.RoundsPerClient, warm.DurationMS = 0, max(1, int64(float64(spec.DurationMS)*spec.WarmUp))
		}
		warm.drive(e, wl, clk, tenants, ^spec.Seed)
	}
	// The clocks, operation counters and latency windows cover the
	// measured pass.
	e.Stats().Reset()
	wallStart := time.Now()
	virtStart := clk.Now()
	runCtx, stopRun := context.WithCancel(context.Background())
	defer stopRun()

	// Fault replay: walk the seeded schedule on the scenario clock.
	faultsApplied := 0
	var faultWG sync.WaitGroup
	if spec.Faults != nil {
		events := spec.schedule()
		logf("fault schedule: %d events over %v", len(events), ms(spec.DurationMS))
		faultWG.Add(1)
		vclock.Go(clk, func() {
			defer faultWG.Done()
			for _, ev := range events {
				if vclock.SleepCtx(runCtx, clk, ev.At-clk.Since(virtStart)) != nil {
					return
				}
				if err := e.ApplyFault(ev); err == nil {
					faultsApplied++
					logf("t=%v fault: %v", clk.Since(virtStart).Round(time.Millisecond), ev.Kind)
				}
			}
		})
	}

	stats, measured := spec.drive(e, wl, clk, tenants, spec.Seed)
	stopRun()
	faultWG.Wait()
	logf("workload done at t=%v", clk.Since(virtStart).Round(time.Millisecond))

	// Capture admitted-work latency and the figures' metrics before the
	// verification phase adds cheap read-back traffic to the recorders.
	oltpQ, olapQ, _ := e.Stats().Quantiles()
	metrics := spec.metrics(e, wl, stats, measured, oltpQ, olapQ)

	// Heal, recover, converge.
	e.HealNet()
	for _, id := range e.Faults.DownSites() {
		if err := e.RecoverSite(id); err != nil {
			logf("recover site %d: %v", id, err)
		}
	}
	converged, lag := waitConverged(e, clk, ms(spec.ConvergeTimeoutMS))
	if !converged {
		logf("convergence timeout: %s", lag)
	}

	// Read back every acknowledged write.
	var counts Counts
	var unhinted int64
	for _, st := range stats {
		unhinted += st.unhinted
		counts.OLTPAttempted += st.oltpAttempted
		counts.OLTPAcked += st.oltpAcked
		counts.OLAPAttempted += st.olapAttempted
		counts.OLAPAcked += st.olapAcked
		counts.Shed += st.shed
		counts.Errors += st.errs
	}
	verifySess := e.NewSession()
	for c, acked := range wl.acked {
		rows := make([]schema.RowID, 0, len(acked))
		for r := range acked {
			rows = append(rows, r)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
		for _, r := range rows {
			got, err := readBack(e, verifySess, clk, wl.table, r)
			counts.RowsVerified++
			if err != nil {
				counts.AckedLost++
				logf("client %d row %d: acked write unreadable: %v", c, r, err)
			} else if got != acked[r] {
				counts.AckedLost++
				logf("client %d row %d: acked %v, read %v", c, r, acked[r], got)
			}
		}
	}
	counts.Converged = converged

	rep := &Report{
		Canonical: CanonicalReport{
			Scenario: spec.Name,
			Seed:     spec.Seed,
			Mode:     spec.Mode,
			Sites:    spec.Sites,
			Clients:  spec.Clients,
			Counts:   counts,
			Messages: e.Net.TotalMessages(),
			Bytes:    e.Net.TotalBytes(),
		},
		Virtual:       clk.Since(virtStart),
		Wall:          time.Since(wallStart),
		Metrics:       metrics,
		FaultsApplied: faultsApplied,
		ConvergeLag:   lag,
	}
	if sim, ok := clk.(*vclock.Sim); ok {
		rep.SimAdvances, rep.SimIdleAdvances = sim.Advances()
	}
	rep.Violations = spec.Assert.check(rep)
	if unhinted > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("%d of %d sheds carried no RetryAfter hint", unhinted, counts.Shed))
	}
	return rep, nil
}

// drive runs one pass of closed-loop clients to its rounds or window and
// returns their tallies and the pass's length. seed seeds the clients'
// generators: client c draws from seed<<16 + c.
func (s Spec) drive(e *cluster.Engine, wl *loaded, clk vclock.Clock, tenants []string, seed int64) ([]*clientState, time.Duration) {
	start := clk.Now()
	runCtx, stopRun := context.WithCancel(context.Background())
	defer stopRun()
	// lastAck is the newest acknowledged commit's clock time, for the
	// freshness gap of the queries that follow it.
	var lastAck atomic.Int64
	lastAck.Store(start.UnixNano())
	stats := make([]*clientState, s.Clients)
	var wg sync.WaitGroup
	for c := 0; c < s.Clients; c++ {
		st := &clientState{queryTime: make([]time.Duration, len(wl.queries)), queryN: make([]int64, len(wl.queries))}
		stats[c] = st
		wg.Add(1)
		vclock.Go(clk, func() {
			defer wg.Done()
			cl := wl.client(c, rand.New(rand.NewSource(seed<<16+int64(c))))
			ack, _ := cl.(acker)
			stamps, _ := cl.(stamper)
			sess := e.NewSession()
			// Ops run on an uncancellable context: cancelling a commit wait
			// leaves the write's outcome ambiguous (the enqueued group still
			// flushes), which would poison acked-write verification. The run
			// window is enforced between rounds instead.
			ctx := context.Background()
			if t := s.tenantOf(c, tenants); t != "" {
				ctx = admission.WithTenant(ctx, t)
			}
			for round := 0; ; round++ {
				if s.RoundsPerClient > 0 && round >= s.RoundsPerClient {
					return
				}
				if runCtx.Err() != nil {
					return
				}
				elapsed := clk.Since(start)
				ph := s.phaseAt(elapsed)
				if wl.skew != nil {
					wl.skew(float64(ph.HotShift) / float64(s.Clients))
				}
				think := s.thinkFor(c, ph)
				if think > 0 && vclock.SleepCtx(runCtx, clk, think) != nil {
					return
				}
				n := s.OLTPPerRound
				if ph.OLTPPerRound > 0 {
					n = ph.OLTPPerRound
				}
				for k := 0; k < n; k++ {
					st.oltpAttempted++
					_, err := e.ExecuteTxn(ctx, sess, cl.OLTP())
					switch {
					case err == nil:
						st.oltpAcked++
						if ack != nil {
							ack.ack()
						}
						if stamps != nil {
							lastAck.Store(clk.Now().UnixNano())
						}
						if s.DurationMS > 0 {
							st.timeline[min(timelineBuckets-1, int(elapsed*timelineBuckets/ms(s.DurationMS)))]++
						}
					case errors.Is(err, faults.ErrOverload):
						st.countShed(err)
					default:
						st.errs++
					}
				}
				if s.OLAPEvery > 0 && round%s.OLAPEvery == 0 {
					qi := (c + int(st.olapAttempted)) % len(wl.queries)
					st.olapAttempted++
					before := time.Unix(0, lastAck.Load())
					t0 := clk.Now()
					res, err := e.ExecuteQuery(ctx, sess, cl.OLAP())
					switch {
					case err == nil:
						st.olapAcked++
						st.queryTime[qi] += clk.Since(t0)
						st.queryN[qi]++
						if stamps != nil {
							if oldest, ok := stamps.oldest(res); ok {
								st.gap += max(0, before.Sub(oldest))
								st.gapN++
							}
						}
					case errors.Is(err, faults.ErrOverload):
						st.countShed(err)
					default:
						st.errs++
					}
				}
			}
		})
	}

	// Timed mode: one registered sleeper closes the run window.
	if s.DurationMS > 0 {
		vclock.Go(clk, func() {
			clk.Sleep(ms(s.DurationMS))
			stopRun()
		})
	}
	wg.Wait()
	return stats, clk.Since(start)
}

// schedule builds the fault event list: faults.NewSchedule from the
// scenario seed, filtered down to the event kinds the spec asked for
// (NewSchedule itself always emits at least one of each).
func (s Spec) schedule() []faults.Event {
	sites := make([]simnet.SiteID, s.Sites)
	for i := range sites {
		sites[i] = simnet.SiteID(i)
	}
	crashes, parts := s.Faults.Crashes, s.Faults.Partitions
	gen := faults.NewSchedule(s.Seed, faults.ScheduleConfig{
		Sites:       sites,
		Duration:    ms(s.DurationMS),
		Crashes:     max(1, crashes),
		Partitions:  max(1, parts),
		MinDowntime: ms(s.Faults.MinDowntimeMS),
		MaxDowntime: ms(s.Faults.MaxDowntimeMS),
	})
	events := make([]faults.Event, 0, len(gen))
	for _, ev := range gen {
		switch ev.Kind {
		case faults.EventCrash, faults.EventRecover:
			if crashes <= 0 {
				continue
			}
		case faults.EventPartition, faults.EventHeal:
			if parts <= 0 {
				continue
			}
		}
		events = append(events, ev)
	}
	return events
}

// readBack reads one row's val column, riding out transient overload and
// timeout errors on the scenario clock.
func readBack(e *cluster.Engine, sess *cluster.Session, clk vclock.Clock, tblID schema.TableID, row schema.RowID) (float64, error) {
	var lastErr error
	for attempt := 0; attempt < 500; attempt++ {
		res, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{{
			Kind: query.OpRead, Table: tblID, Row: row, Cols: []schema.ColID{2},
		}}})
		if err == nil {
			if len(res.Tuples) != 1 || len(res.Tuples[0]) != 1 {
				return 0, fmt.Errorf("read returned %d tuples", len(res.Tuples))
			}
			return res.Tuples[0][0].Float(), nil
		}
		lastErr = err
		if !errors.Is(err, faults.ErrOverload) && !errors.Is(err, faults.ErrTimeout) {
			return 0, err
		}
		clk.Sleep(time.Millisecond)
	}
	return 0, lastErr
}

// waitConverged polls until every replica has caught up to its master's
// version, on the scenario clock.
func waitConverged(e *cluster.Engine, clk vclock.Clock, timeout time.Duration) (bool, string) {
	deadline := clk.Now().Add(timeout)
	for {
		lag := convergenceLag(e)
		if lag == "" {
			return true, ""
		}
		if clk.Now().After(deadline) {
			return false, lag
		}
		clk.Sleep(2 * time.Millisecond)
	}
}

// convergenceLag returns "" when every live copy of every partition has
// reached the master's version, else a description of the first laggard.
func convergenceLag(e *cluster.Engine) string {
	for _, m := range e.Dir.All() {
		master := m.Master()
		mp, ok := e.Sites[int(master.Site)].Partition(m.ID)
		if !ok {
			return fmt.Sprintf("partition %d: master copy missing at site %d", m.ID, master.Site)
		}
		v := mp.Version()
		for _, r := range m.Replicas() {
			rp, ok := e.Sites[int(r.Site)].Partition(m.ID)
			if !ok {
				return fmt.Sprintf("partition %d: replica copy missing at site %d", m.ID, r.Site)
			}
			if rp.Version() < v {
				return fmt.Sprintf("partition %d: site %d at version %d < master %d", m.ID, r.Site, rp.Version(), v)
			}
		}
	}
	return ""
}

// check evaluates the invariant block against the finished report.
func (a AssertSpec) check(r *Report) []string {
	var v []string
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }
	c := r.Canonical.Counts
	if (a.ZeroAckedLoss == nil || *a.ZeroAckedLoss) && c.AckedLost > 0 {
		add("acked-write loss: %d of %d verified rows", c.AckedLost, c.RowsVerified)
	}
	if (a.Convergence == nil || *a.Convergence) && !c.Converged {
		add("replicas did not converge: %s", r.ConvergeLag)
	}
	if a.MaxErrorRate != nil {
		attempts := c.OLTPAttempted + c.OLAPAttempted - c.Shed
		if attempts > 0 {
			rate := float64(c.Errors) / float64(attempts)
			if rate > *a.MaxErrorRate {
				add("error rate %.4f > max %.4f (%d errors / %d attempts)", rate, *a.MaxErrorRate, c.Errors, attempts)
			}
		}
	}
	if p99 := r.Metrics["oltp_p99_ms"]; a.OLTPP99MaxMS > 0 && p99 > a.OLTPP99MaxMS {
		add("admitted OLTP p99 %.2fms > max %gms", p99, a.OLTPP99MaxMS)
	}
	if a.MinOLTPAcked > 0 && c.OLTPAcked < a.MinOLTPAcked {
		add("oltp acked %d < min %d", c.OLTPAcked, a.MinOLTPAcked)
	}
	if a.MinShed > 0 && c.Shed < a.MinShed {
		add("shed %d < min %d (overload never engaged)", c.Shed, a.MinShed)
	}
	if a.MinVirtualMS > 0 && r.Virtual < ms(a.MinVirtualMS) {
		add("virtual elapsed %v < min %v", r.Virtual.Round(time.Millisecond), ms(a.MinVirtualMS))
	}
	if a.MaxWallSec > 0 && r.Wall.Seconds() > a.MaxWallSec {
		add("wall time %.1fs > max %.1fs", r.Wall.Seconds(), a.MaxWallSec)
	}
	return v
}
