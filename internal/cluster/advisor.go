package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/asa"
	"proteus/internal/forecast"
	"proteus/internal/metadata"
	"proteus/internal/obs"
	"proteus/internal/partition"
	"proteus/internal/plan"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
)

// AdaptConfig parameterizes the adaptive storage advisor.
type AdaptConfig struct {
	Flags asa.Flags
	// Lambda weighs expected benefit against upfront cost (§5.3.2).
	Lambda float64
	// Horizon is the window over which expected benefits accrue — the
	// paper's configurable 10-minute interval, scaled to seconds here.
	Horizon time.Duration
	// PredictiveInterval is the period of the predictive planning loop.
	PredictiveInterval time.Duration
	// CapacityInterval is the period of the storage-pressure check.
	CapacityInterval time.Duration
	// MinSplitRows is the smallest partition the advisor will split.
	MinSplitRows int
	// MaxChangesPerTrigger bounds the §5.3.2 repeat-until-no-benefit loop.
	MaxChangesPerTrigger int
	// SampleEvery gates plan-triggered adaptation: every Nth request is
	// considered in addition to those with above-average leaf cost.
	SampleEvery int
}

// DefaultAdaptConfig returns the standard advisor settings.
func DefaultAdaptConfig() AdaptConfig {
	return AdaptConfig{
		Flags:                asa.AllFlags(),
		Lambda:               3,
		Horizon:              5 * time.Second,
		PredictiveInterval:   500 * time.Millisecond,
		CapacityInterval:     time.Second,
		MinSplitRows:         64,
		MaxChangesPerTrigger: 2,
		SampleEvery:          16,
	}
}

// Advisor drives Proteus' adaptation: plan-triggered, predictive and
// capacity-triggered layout changes (§5.3.2).
type Advisor struct {
	e    *Engine
	cfg  AdaptConfig
	eval *asa.Evaluator

	mu sync.Mutex // serializes layout changes

	counter atomic.Int64
	// ewma of request latencies (µs) per class, for the above-average
	// trigger.
	ewmaMu   sync.Mutex
	ewmaOLTP float64
	ewmaOLAP float64

	// Decision reuse for layout changes (§5.3.3).
	decisions *plan.DecisionCache

	// Per-partition hybrid predictors for the predictive trigger.
	predMu sync.Mutex
	preds  map[partition.ID]*forecast.Hybrid

	// lastChange rate-limits re-adaptation of the same partition,
	// hysteresis against format flip-flopping under mixed access.
	lcMu       sync.Mutex
	lastChange map[partition.ID]time.Time

	changes atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

func newAdvisor(e *Engine, cfg AdaptConfig) *Advisor {
	if cfg.Lambda <= 0 {
		cfg.Lambda = 3
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 5 * time.Second
	}
	if cfg.MaxChangesPerTrigger <= 0 {
		cfg.MaxChangesPerTrigger = 2
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 16
	}
	if cfg.MinSplitRows <= 0 {
		cfg.MinSplitRows = 64
	}
	return &Advisor{
		e:          e,
		cfg:        cfg,
		eval:       &asa.Evaluator{Model: e.Model, Lambda: cfg.Lambda},
		decisions:  plan.NewDecisionCache(),
		preds:      make(map[partition.ID]*forecast.Hybrid),
		lastChange: make(map[partition.ID]time.Time),
		stop:       make(chan struct{}),
	}
}

func (a *Advisor) start() {
	if a.cfg.PredictiveInterval > 0 {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			t := a.e.clk.NewTicker(a.cfg.PredictiveInterval)
			defer t.Stop()
			for {
				select {
				case <-a.e.stop:
					return
				case <-t.C:
					a.predictiveTick()
				}
			}
		}()
	}
	if a.cfg.CapacityInterval > 0 {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			t := a.e.clk.NewTicker(a.cfg.CapacityInterval)
			defer t.Stop()
			for {
				select {
				case <-a.e.stop:
					return
				case <-t.C:
					a.capacityTick()
				}
			}
		}()
	}
}

// Changes reports how many layout changes the advisor has executed.
func (a *Advisor) Changes() int64 { return a.changes.Load() }

// trace appends one decision to the engine's ASA decision trace.
func (a *Advisor) trace(pid partition.ID, trigger string, c asa.Candidate, planD, execD time.Duration, err error) {
	if a.e.Trace == nil {
		return
	}
	d := obs.Decision{
		At:        a.e.clk.Now(),
		Partition: uint64(pid),
		Trigger:   trigger,
		Kind:      c.Kind.String(),
		Layout:    c.NewLayout.String(),
		Net:       c.Net,
		PlanTime:  planD,
		ExecTime:  execD,
		Executed:  err == nil,
	}
	if err != nil {
		d.Err = err.Error()
	}
	a.e.Trace.Add(d)
}

// shouldConsider implements §5.3.2's gating: adapt when the request's cost
// is above the decayed average, or on a deterministic sample.
func (a *Advisor) shouldConsider(olap bool, d time.Duration) bool {
	us := float64(d.Microseconds())
	a.ewmaMu.Lock()
	var above bool
	if olap {
		if a.ewmaOLAP == 0 {
			a.ewmaOLAP = us
		}
		above = us > a.ewmaOLAP
		a.ewmaOLAP = a.ewmaOLAP*0.95 + us*0.05
	} else {
		if a.ewmaOLTP == 0 {
			a.ewmaOLTP = us
		}
		above = us > a.ewmaOLTP
		a.ewmaOLTP = a.ewmaOLTP*0.95 + us*0.05
	}
	a.ewmaMu.Unlock()
	if above {
		return true
	}
	return a.counter.Add(1)%int64(a.cfg.SampleEvery) == 0
}

// onTxnExecuted is the OLTP plan trigger.
func (a *Advisor) onTxnExecuted(tp *plan.TxnPlan, d time.Duration) {
	if !a.shouldConsider(false, d) {
		return
	}
	// Costliest leaf: the written partition with the highest contention,
	// else the first piece touched.
	var target *metadata.PartitionMeta
	bestWait := time.Duration(-1)
	for _, b := range tp.Bindings {
		for _, m := range b.Pieces {
			if b.Op.Kind == query.OpRead && target != nil {
				continue
			}
			_, wait := a.e.Locks.Contention(m.ID)
			if wait > bestWait {
				bestWait, target = wait, m
			}
		}
	}
	if target != nil {
		a.adaptPartition(target.ID, false, "oltp-plan", ClassOLTPLayoutPlan, ClassOLTPLayoutExec)
	}
}

// onQueryExecuted is the OLAP plan trigger: adapt the scanned partition
// contributing the most estimated cost (largest rows on the least
// scan-friendly layout).
func (a *Advisor) onQueryExecuted(pn plan.PNode, d time.Duration) {
	if !a.shouldConsider(true, d) {
		return
	}
	var target partition.ID
	var bestScore float64 = -1
	var walk func(plan.PNode)
	walk = func(n plan.PNode) {
		switch v := n.(type) {
		case *plan.PScan:
			for _, seg := range v.Segments {
				for _, p := range seg.Pieces {
					rows := 1.0
					if p.Meta.ZoneMap != nil {
						rows = float64(p.Meta.ZoneMap.Rows())
					}
					score := rows
					if p.Copy.Layout.Format == storage.RowFormat {
						score *= 4 // rows are the scan-hostile layout
					}
					if p.Copy.Layout.Tier == storage.DiskTier {
						score *= 2
					}
					if score > bestScore {
						bestScore, target = score, p.Meta.ID
					}
				}
			}
		case *plan.PJoin:
			walk(v.Left)
			walk(v.Right)
		case *plan.PAgg:
			walk(v.Child)
		}
	}
	walk(pn)
	if bestScore >= 0 {
		a.adaptPartition(target, false, "olap-plan", ClassOLAPLayoutPlan, ClassOLAPLayoutExec)
	}
}

// buildView assembles the decision snapshot for one partition.
func (a *Advisor) buildView(m *metadata.PartitionMeta, predicted bool) (asa.PartitionView, bool) {
	master := m.Master()
	if a.e.siteOf(master.Site).Down() {
		return asa.PartitionView{}, false // awaiting failover or recovery
	}
	p, ok := a.e.siteOf(master.Site).Partition(m.ID)
	if !ok {
		return asa.PartitionView{}, false
	}
	st := p.Stats()
	rowBytes := a.e.Dir.AvgRowBytes(m.Bounds.Table, nil)
	if rowBytes == 0 {
		rowBytes = 64
	}

	horizonSec := a.cfg.Horizon.Seconds()
	window := 8 // recent fine buckets
	rates := asa.AccessRates{
		Updates:    m.Tracker.RecentRate(forecast.Update, window) * horizonSec,
		PointReads: m.Tracker.RecentRate(forecast.PointRead, window) * horizonSec,
		Scans:      m.Tracker.RecentRate(forecast.Scan, window) * horizonSec,
	}
	if predicted {
		rates = a.predictedRates(m, horizonSec)
	}
	total := rates.Updates + rates.PointReads + rates.Scans
	prob, delay := forecast.ArrivalEstimate(total)
	rates.Prob, rates.Delay = prob, delay

	ongoing := asa.AccessRates{
		Updates:    m.Tracker.RecentRate(forecast.Update, 2),
		PointReads: m.Tracker.RecentRate(forecast.PointRead, 2),
		Scans:      m.Tracker.RecentRate(forecast.Scan, 2),
		Prob:       1,
		Delay:      0,
	}

	waiters, wait := a.e.Locks.Contention(m.ID)

	// Column heat from the directory's per-table statistics.
	cs := a.e.Dir.ColumnStats(m.Bounds.Table)
	nCols := m.Bounds.NumCols()
	writeHot := make([]bool, nCols)
	readHot := make([]bool, nCols)
	for i := 0; i < nCols; i++ {
		g := int(m.Bounds.GlobalCol(schema.ColID(i)))
		if g < len(cs) {
			writeHot[i] = cs[g].Writes > cs[g].Reads && cs[g].Writes > 0
			readHot[i] = cs[g].Reads >= cs[g].Writes && cs[g].Reads > 0
		}
	}

	coSite := simnet.SiteID(-1)
	if tops := m.CoAccessed(1); len(tops) == 1 {
		if cm, ok := a.e.Dir.Get(tops[0]); ok {
			coSite = cm.Master().Site
		}
	}

	var reps []asa.ReplicaView
	for _, r := range m.Replicas() {
		reps = append(reps, asa.ReplicaView{Site: r.Site, Layout: r.Layout})
	}
	return asa.PartitionView{
		PID:      m.ID,
		Bounds:   m.Bounds,
		Rows:     st.Rows,
		RowBytes: rowBytes,
		Master:   asa.ReplicaView{Site: master.Site, Layout: master.Layout},
		Replicas: reps,
		Rates:    rates,
		Ongoing:  ongoing,
		// Scans in the evaluated workloads read whole partitions unless
		// zone maps skip them entirely; evaluating at full selectivity
		// keeps the feature inside the cost models' training range.
		ScanSelectivity:   1.0,
		AvgUpdateCols:     maxIntA(1, nCols/3),
		ContentionWaiters: waiters,
		ContentionWait:    wait,
		WriteHotCols:      writeHot,
		ReadHotCols:       readHot,
		CoAccessSite:      coSite,
	}, true
}

// predictedRates forecasts the next-horizon access counts with the
// per-partition hybrid predictors (§5.2.2).
func (a *Advisor) predictedRates(m *metadata.PartitionMeta, horizonSec float64) asa.AccessRates {
	a.predMu.Lock()
	h, ok := a.preds[m.ID]
	if !ok {
		h = forecast.NewHybrid(8, int64(m.ID))
		a.preds[m.ID] = h
	}
	a.predMu.Unlock()

	bucketsPerHorizon := horizonSec / m.Tracker.FineInterval().Seconds()
	predict := func(kind forecast.AccessKind) float64 {
		series := m.Tracker.Fine(kind)
		// Train incrementally on a bounded recent window: refitting the
		// full history on every call made prediction the dominant cost.
		if len(series) > 64 {
			series = series[len(series)-64:]
		}
		h.Fit(series)
		perBucket := h.Predict(series, 1)
		return perBucket * bucketsPerHorizon
	}
	return asa.AccessRates{
		Updates:    predict(forecast.Update),
		PointReads: predict(forecast.PointRead),
		Scans:      predict(forecast.Scan),
	}
}

// adaptPartition runs the §5.3.2 loop: generate candidates, evaluate N(S),
// execute the best while positive. A per-partition cooldown provides
// hysteresis: a freshly changed partition is left alone long enough for
// its access statistics and cost observations to reflect the new layout.
func (a *Advisor) adaptPartition(pid partition.ID, predicted bool, trigger string, planClass, execClass OpClass) {
	const cooldown = 400 * time.Millisecond
	a.lcMu.Lock()
	if last, ok := a.lastChange[pid]; ok && a.e.clk.Since(last) < cooldown {
		a.lcMu.Unlock()
		return
	}
	a.lcMu.Unlock()
	// Layout planning must not serialize the request path: the ASA plans
	// asynchronously from execution (§3). If another adaptation is in
	// flight, skip this trigger — the next request re-triggers.
	if !a.mu.TryLock() {
		return
	}
	defer a.mu.Unlock()
	for i := 0; i < a.cfg.MaxChangesPerTrigger; i++ {
		m, ok := a.e.Dir.Get(pid)
		if !ok {
			return
		}
		planStart := a.e.clk.Now()
		view, ok := a.buildView(m, predicted)
		if !ok {
			return
		}
		if view.Rows == 0 {
			return // nothing stored; no change can pay off
		}
		best, found := a.bestCandidate(view)
		planDur := a.e.clk.Since(planStart)
		a.e.stats.Record(planClass, planDur)
		if !found || best.Net <= 0 {
			return
		}
		execStart := a.e.clk.Now()
		err := a.execute(view, best)
		a.trace(pid, trigger, best, planDur, a.e.clk.Since(execStart), err)
		if err != nil {
			return
		}
		a.changes.Add(1)
		a.e.stats.Record(execClass, a.e.clk.Since(execStart))
		a.lcMu.Lock()
		a.lastChange[pid] = a.e.clk.Now()
		a.lcMu.Unlock()
		// After structural changes the partition ID is gone; stop.
		switch best.Kind {
		case asa.SplitHorizontal, asa.SplitVertical, asa.MergeWith:
			return
		}
	}
}

// bestCandidate generates, filters and evaluates candidates, reusing
// bucketed decisions when enabled (§5.3.3).
func (a *Advisor) bestCandidate(view asa.PartitionView) (asa.Candidate, bool) {
	cands := asa.GenerateCandidates(view, a.cfg.Flags, len(a.e.Sites))
	var viable []asa.Candidate
	for _, c := range cands {
		if (c.Kind == asa.SplitHorizontal || c.Kind == asa.SplitVertical) && view.Rows < a.cfg.MinSplitRows {
			continue
		}
		// Never place work on a crashed site.
		if int(c.Site) >= 0 && int(c.Site) < len(a.e.Sites) && a.e.siteOf(c.Site).Down() {
			continue
		}
		viable = append(viable, c)
	}
	if len(viable) == 0 {
		return asa.Candidate{}, false
	}

	if a.cfg.Flags.DecisionReuse {
		key := a.decisionKey(view)
		if d, ok := a.decisions.Lookup(key); ok {
			if cached, ok := d.(asa.Candidate); ok && cached.Net > 0 {
				// Reapply the cached decision if it is still viable for
				// this partition (same change kind and resulting layout).
				for _, c := range viable {
					if c.Kind == cached.Kind && c.NewLayout == cached.NewLayout {
						c.Net = cached.Net
						return c, true
					}
				}
			}
		}
	}

	best := asa.Candidate{Net: -1}
	for _, c := range viable {
		ev := a.eval.Evaluate(view, c)
		if ev.Net > best.Net {
			best = ev
		}
	}
	if a.cfg.Flags.DecisionReuse && best.Net > 0 {
		// Only positive decisions are reused; rejections re-evaluate as
		// rates and models evolve.
		a.decisions.Store(a.decisionKey(view), best)
	}
	return best, best.Net > 0
}

// decisionKey buckets the view's inputs for decision reuse.
func (a *Advisor) decisionKey(view asa.PartitionView) string {
	tags := []string{
		view.Master.Layout.String(),
		fmt.Sprintf("reps=%d", len(view.Replicas)),
	}
	return plan.Key("layout-change", tags, []float64{
		float64(view.Rows),
		view.Rates.Updates,
		view.Rates.PointReads,
		view.Rates.Scans,
		float64(view.ContentionWaiters),
	})
}

// execute dispatches a candidate to the engine's layout operators.
func (a *Advisor) execute(view asa.PartitionView, c asa.Candidate) error {
	switch c.Kind {
	case asa.ChangeFormat, asa.ChangeTier, asa.ChangeSort, asa.ChangeCompress:
		return a.e.ChangeCopyLayout(c.PID, c.Site, c.NewLayout)
	case asa.SplitHorizontal:
		return a.e.SplitH(c.PID, c.SplitRow)
	case asa.SplitVertical:
		// The write-hot side keeps rows; the read side keeps the current
		// format.
		left := storage.DefaultRowLayout()
		right := view.Master.Layout
		right.SortBy = storage.NoSort
		if len(view.WriteHotCols) > 0 && !view.WriteHotCols[0] {
			left, right = right, left
			left.SortBy = storage.NoSort
		}
		return a.e.SplitV(c.PID, c.SplitCol, left, right)
	case asa.MergeWith:
		return a.e.MergeH(c.PID, c.Other)
	case asa.AddReplica:
		return a.e.AddReplicaOp(c.PID, c.Site, c.NewLayout)
	case asa.RemoveReplica:
		return a.e.RemoveReplicaOp(c.PID, c.Site)
	case asa.ChangeMaster:
		return a.e.ChangeMasterOp(c.PID, c.Site)
	}
	return fmt.Errorf("cluster: unknown candidate kind %v", c.Kind)
}

// predictiveTick considers layout changes for partitions whose predicted
// access pattern diverges from the recent one (§5.3.2).
func (a *Advisor) predictiveTick() {
	type scored struct {
		pid partition.ID
		gap float64
	}
	var worst []scored
	for _, m := range a.e.Dir.All() {
		recent := m.Tracker.RecentRate(forecast.Update, 8) + m.Tracker.RecentRate(forecast.Scan, 8)
		if recent == 0 && m.Tracker.Total(forecast.Update)+m.Tracker.Total(forecast.Scan) == 0 {
			continue
		}
		pr := a.predictedRates(m, a.cfg.Horizon.Seconds())
		horizon := a.cfg.Horizon.Seconds()
		predictedRate := (pr.Updates + pr.Scans) / horizon
		gap := absF(predictedRate - recent)
		if gap > 0.25*maxFA(recent, 1) {
			worst = append(worst, scored{m.ID, gap})
		}
	}
	sort.Slice(worst, func(i, j int) bool { return worst[i].gap > worst[j].gap })
	if len(worst) > 4 {
		worst = worst[:4]
	}
	for _, w := range worst {
		a.adaptPartition(w.pid, true, "predictive", ClassOLAPLayoutPlan, ClassOLAPLayoutExec)
	}
	a.considerMerges()
}

// considerMerges proposes merging adjacent cooled-down partitions of the
// same table at the same master site (§6.3.4: "Over time, Proteus merges
// these partitions into larger partitions" once inserted data becomes
// read-only). At most one merge executes per tick.
func (a *Advisor) considerMerges() {
	if !a.cfg.Flags.Merging {
		return
	}
	type groupKey struct {
		table    schema.TableID
		colStart schema.ColID
		colEnd   schema.ColID
		site     simnet.SiteID
	}
	groups := map[groupKey][]*metadata.PartitionMeta{}
	for _, m := range a.e.Dir.All() {
		if a.e.siteOf(m.Master().Site).Down() {
			continue
		}
		k := groupKey{m.Bounds.Table, m.Bounds.ColStart, m.Bounds.ColEnd, m.Master().Site}
		groups[k] = append(groups[k], m)
	}
	const coldRate = 0.5 // accesses/sec below which a partition is "cold"
	for _, ms := range groups {
		sort.Slice(ms, func(i, j int) bool { return ms[i].Bounds.RowStart < ms[j].Bounds.RowStart })
		for i := 0; i+1 < len(ms); i++ {
			l, r := ms[i], ms[i+1]
			if l.Bounds.RowEnd != r.Bounds.RowStart {
				continue
			}
			if partRate(l) > coldRate || partRate(r) > coldRate {
				continue
			}
			a.mu.Lock()
			planStart := a.e.clk.Now()
			view, ok := a.buildView(l, false)
			if !ok || view.Rows == 0 {
				a.mu.Unlock()
				continue
			}
			cand := a.eval.Evaluate(view, asa.Candidate{
				Kind: asa.MergeWith, PID: l.ID, Other: r.ID, Site: l.Master().Site,
			})
			planDur := a.e.clk.Since(planStart)
			if cand.Net > 0 {
				start := a.e.clk.Now()
				err := a.e.MergeH(l.ID, r.ID)
				a.trace(l.ID, "merge", cand, planDur, a.e.clk.Since(start), err)
				if err == nil {
					a.changes.Add(1)
					a.e.stats.Record(ClassOLAPLayoutExec, a.e.clk.Since(start))
					a.mu.Unlock()
					return // one merge per tick
				}
			}
			a.mu.Unlock()
		}
	}
}

// partRate sums a partition's recent access rates.
func partRate(m *metadata.PartitionMeta) float64 {
	return m.Tracker.RecentRate(forecast.Update, 8) +
		m.Tracker.RecentRate(forecast.PointRead, 8) +
		m.Tracker.RecentRate(forecast.Scan, 8)
}

// capacityTick responds to sites nearing their memory capacity (§5.3.2).
func (a *Advisor) capacityTick() {
	for _, s := range a.e.Sites {
		if s.Down() {
			continue
		}
		cap := s.MemCapacity()
		if cap <= 0 {
			continue
		}
		used := s.MemUsage()
		if float64(used) < 0.9*float64(cap) {
			continue
		}
		a.relieveSite(s.ID, used-int64(0.8*float64(cap)))
	}
}

// relieveSite frees at least `need` bytes from a site's memory tier by the
// option with the best net benefit per byte.
func (a *Advisor) relieveSite(siteID simnet.SiteID, need int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	type opt struct {
		o     asa.CapacityOption
		score float64
	}
	var opts []opt
	for _, p := range a.e.siteOf(siteID).Partitions() {
		if p.Layout().Tier != storage.MemoryTier {
			continue
		}
		m, ok := a.e.Dir.Get(p.ID)
		if !ok {
			continue
		}
		view, ok := a.buildView(m, false)
		if !ok {
			continue
		}
		bytes := int64(p.Stats().Bytes)
		for _, co := range asa.CapacityCandidates(view, siteID, a.cfg.Flags, len(a.e.Sites), bytes) {
			ev := a.eval.Evaluate(view, co.Candidate)
			if co.BytesFreed <= 0 {
				continue
			}
			opts = append(opts, opt{o: asa.CapacityOption{Candidate: ev, BytesFreed: co.BytesFreed},
				score: ev.Net / float64(co.BytesFreed)})
		}
	}
	sort.Slice(opts, func(i, j int) bool { return opts[i].score > opts[j].score })
	freed := int64(0)
	for _, o := range opts {
		if freed >= need {
			return
		}
		m, ok := a.e.Dir.Get(o.o.Candidate.PID)
		if !ok {
			continue
		}
		view, ok := a.buildView(m, false)
		if !ok {
			continue
		}
		execStart := a.e.clk.Now()
		err := a.execute(view, o.o.Candidate)
		a.trace(o.o.Candidate.PID, "capacity", o.o.Candidate, 0, a.e.clk.Since(execStart), err)
		if err == nil {
			a.changes.Add(1)
			freed += o.o.BytesFreed
		}
	}
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func maxFA(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func maxIntA(a, b int) int {
	if a > b {
		return a
	}
	return b
}
