package cluster

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/asa"
	"proteus/internal/forecast"
	"proteus/internal/metadata"
	"proteus/internal/obs"
	"proteus/internal/partition"
	"proteus/internal/plan"
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
	// paper's configurable 10-minute interval, scaled to seconds here —
	// and within which undoing a change is priced.
	Horizon time.Duration
	// Interval is the period of the planning pass (≤ 0: none runs).
	Interval time.Duration
	// MinSplitRows is the smallest partition the advisor will split.
	MinSplitRows int
}

// DefaultAdaptConfig returns the standard advisor settings.
func DefaultAdaptConfig() AdaptConfig {
	return AdaptConfig{
		Flags:        asa.AllFlags(),
		Lambda:       3,
		Horizon:      5 * time.Second,
		Interval:     50 * time.Millisecond,
		MinSplitRows: 64,
	}
}

// changeBudget bounds the changes one planning pass executes.
const changeBudget = 3

// Advisor drives Proteus' adaptation (§5.3.2). The plan triggers only
// enqueue the partitions a request touched; one planning pass, on the
// engine clock, adds the partitions the predictive, merge and capacity
// checks find, evaluates every pending partition's candidates, chooses
// one plan (asa.Choose) and executes it.
type Advisor struct {
	e    *Engine
	cfg  AdaptConfig
	eval *asa.Evaluator

	pendMu  sync.Mutex
	pending map[partition.ID]string // partition → why it was enqueued

	mu sync.Mutex // one pass at a time
	// last is each partition's last executed change (asa.History).
	last map[partition.ID]asa.Executed

	// Decision reuse for layout changes (§5.3.3).
	decisions *plan.DecisionCache

	// Per-partition hybrid predictors for the predictive check (under mu).
	preds map[partition.ID]*predictor

	changes, reverted atomic.Int64
}

func newAdvisor(e *Engine, cfg AdaptConfig) *Advisor {
	if cfg.Lambda <= 0 {
		cfg.Lambda = 3
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 5 * time.Second
	}
	if cfg.MinSplitRows <= 0 {
		cfg.MinSplitRows = 64
	}
	return &Advisor{
		e:         e,
		cfg:       cfg,
		eval:      &asa.Evaluator{Model: e.Model, Lambda: cfg.Lambda},
		pending:   make(map[partition.ID]string),
		last:      make(map[partition.ID]asa.Executed),
		decisions: plan.NewDecisionCache(),
		preds:     make(map[partition.ID]*predictor),
	}
}

// start runs the planning pass every Interval until the engine stops. Like
// the maintenance loop, the goroutine is not a clock-driven task: a
// registered task planning on the CPU holds a simulated clock on its slow
// idle fallback for the whole pass.
func (a *Advisor) start() {
	if a.cfg.Interval <= 0 {
		return
	}
	a.e.wg.Add(1)
	go func() {
		defer a.e.wg.Done()
		t := a.e.clk.NewTicker(a.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-a.e.stop:
				return
			case <-t.C:
				a.pass()
			}
		}
	}()
}

// Changes reports how many layout changes the advisor has executed.
func (a *Advisor) Changes() int64 { return a.changes.Load() }

// Reverted reports how many of them undid a recent one (asa.Reverses).
func (a *Advisor) Reverted() int64 { return a.reverted.Load() }

// enqueue marks a partition for the next pass; its first reason stands.
// The pass's checks run after the interval's requests, so a partition a
// request touched is planned on its recent rates.
func (a *Advisor) enqueue(pid partition.ID, reason string) {
	a.pendMu.Lock()
	if _, ok := a.pending[pid]; !ok {
		a.pending[pid] = reason
	}
	a.pendMu.Unlock()
}

// onTxnExecuted is the OLTP plan trigger: it enqueues every piece the
// transaction touched.
func (a *Advisor) onTxnExecuted(tp *plan.TxnPlan) {
	for _, b := range tp.Bindings {
		for _, m := range b.Pieces {
			a.enqueue(m.ID, "oltp-plan")
		}
	}
}

// onQueryExecuted is the OLAP plan trigger: it enqueues every piece the
// query scanned.
func (a *Advisor) onQueryExecuted(pn plan.PNode) {
	switch v := pn.(type) {
	case *plan.PScan:
		for _, seg := range v.Segments {
			for _, p := range seg.Pieces {
				a.enqueue(p.Meta.ID, "olap-plan")
			}
		}
	case *plan.PJoin:
		a.onQueryExecuted(v.Left)
		a.onQueryExecuted(v.Right)
	case *plan.PAgg:
		a.onQueryExecuted(v.Child)
	}
}

// buildView assembles the decision snapshot for one partition.
func (a *Advisor) buildView(pid partition.ID, predicted bool) (asa.PartitionView, bool) {
	m, ok := a.e.Dir.Get(pid)
	if !ok {
		return asa.PartitionView{}, false
	}
	master := m.Master()
	p, ok := a.e.siteOf(master.Site).Partition(m.ID)
	if !ok || a.e.siteOf(master.Site).Down() {
		return asa.PartitionView{}, false // moved, or awaiting failover or recovery
	}
	st := p.Stats()
	rowBytes := a.e.Dir.AvgRowBytes(m.Bounds.Table, nil)
	if rowBytes == 0 {
		rowBytes = 64
	}

	// Rates over the horizon from the last 8 fine buckets (or predicted);
	// ongoing requests from the last 2, certain to arrive now.
	recent := func(window int, scale float64) asa.AccessRates {
		return asa.AccessRates{Updates: m.Tracker.RecentRate(forecast.Update, window) * scale,
			PointReads: m.Tracker.RecentRate(forecast.PointRead, window) * scale,
			Scans:      m.Tracker.RecentRate(forecast.Scan, window) * scale, Prob: 1}
	}
	horizonSec := a.cfg.Horizon.Seconds()
	rates := recent(8, horizonSec)
	if predicted {
		rates = a.predictedRates(m, horizonSec)
	}
	rates.Prob, rates.Delay = forecast.ArrivalEstimate(rates.Updates + rates.PointReads + rates.Scans)
	ongoing := recent(2, 1)

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

	var reps []asa.ReplicaView
	for _, r := range m.Replicas() {
		reps = append(reps, asa.ReplicaView{Site: r.Site, Layout: r.Layout})
	}
	return asa.PartitionView{
		PID:      m.ID,
		Bounds:   m.Bounds,
		Rows:     st.Rows,
		RowBytes: rowBytes,
		Bytes:    int64(st.Bytes),
		Master:   asa.ReplicaView{Site: master.Site, Layout: master.Layout},
		Replicas: reps,
		Rates:    rates,
		Ongoing:  ongoing,
		// Scans in the evaluated workloads read whole partitions unless
		// zone maps skip them entirely; evaluating at full selectivity
		// keeps the feature inside the cost models' training range.
		ScanSelectivity:   1.0,
		AvgUpdateCols:     max(1, nCols/3),
		ContentionWaiters: waiters,
		ContentionWait:    wait,
		WriteHotCols:      writeHot,
		ReadHotCols:       readHot,
		CoAccessSite:      a.coAccessSite(m),
	}, true
}

// coAccessSite is where the partition most co-accessed with m is
// mastered, or -1.
func (a *Advisor) coAccessSite(m *metadata.PartitionMeta) simnet.SiteID {
	if tops := m.CoAccessed(1); len(tops) == 1 {
		if cm, ok := a.e.Dir.Get(tops[0]); ok {
			return cm.Master().Site
		}
	}
	return -1
}

// predictor is one partition's hybrid forecaster and its last forecast,
// made in the fine bucket starting at.
type predictor struct {
	h     *forecast.Hybrid
	at    time.Time
	rates asa.AccessRates
}

// predictedRates forecasts the next-horizon access counts with the
// per-partition hybrid predictors (§5.2.2), once per fine bucket: the
// series it fits on gains a bucket no faster, and passes run more often.
func (a *Advisor) predictedRates(m *metadata.PartitionMeta, horizonSec float64) asa.AccessRates {
	p, ok := a.preds[m.ID]
	if !ok {
		p = &predictor{h: forecast.NewHybrid(8, int64(m.ID))}
		a.preds[m.ID] = p
	}
	bucket := a.e.clk.Now().Truncate(m.Tracker.FineInterval())
	if p.at.Equal(bucket) {
		return p.rates
	}
	bucketsPerHorizon := horizonSec / m.Tracker.FineInterval().Seconds()
	predict := func(kind forecast.AccessKind) float64 {
		// Train incrementally on a bounded recent window: refitting the
		// full history on every call made prediction the dominant cost.
		series := m.Tracker.Fine(kind)
		series = series[max(0, len(series)-64):]
		p.h.Fit(series)
		return p.h.Predict(series, 1) * bucketsPerHorizon
	}
	p.at, p.rates = bucket, asa.AccessRates{
		Updates:    predict(forecast.Update),
		PointReads: predict(forecast.PointRead),
		Scans:      predict(forecast.Scan),
	}
	return p.rates
}

// pass is the advisor's one planning pass (§5.3.2's benefit-ranked plan):
// the predictive, merge and capacity checks enqueue beside the plan
// triggers, every pending partition's candidates are generated and
// evaluated, one plan is chosen under the change budget, the sites' memory
// capacity and the priced reversal of recent changes (asa.Choose), and it
// is executed in its order.
func (a *Advisor) pass() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checkPredictive()
	merges := a.checkMerges()
	mem := a.checkCapacity()
	a.pendMu.Lock()
	pending := a.pending
	a.pending = make(map[partition.ID]string, len(pending))
	a.pendMu.Unlock()

	pids := make([]partition.ID, 0, len(pending))
	for pid := range pending {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	views, took := make(map[partition.ID]asa.PartitionView), make(map[partition.ID]time.Duration)
	var opts []asa.Option
	for _, pid := range pids {
		start := a.e.clk.Now()
		view, ok := a.buildView(pid, pending[pid] == "predictive")
		if !ok || view.Rows == 0 {
			continue // nothing stored; no change can pay off
		}
		opts = append(opts, a.options(view, pending[pid], merges, mem)...)
		d := a.e.clk.Since(start)
		planClass, _ := layoutClasses(pending[pid])
		a.e.stats.Record(planClass, d)
		views[pid], took[pid] = view, d
	}

	hist := asa.History{Last: a.last, Horizon: a.cfg.Horizon, Now: a.e.clk.Now()}
	for _, o := range asa.Choose(opts, mem, hist, changeBudget) {
		// A master move earlier in the plan may have moved the partition
		// this one follows; two co-accessed partitions would swap sites.
		if m, ok := a.e.Dir.Get(o.PID); o.Kind == asa.ChangeMaster && (!ok || a.coAccessSite(m) != o.Site) {
			continue
		}
		start := a.e.clk.Now()
		err := a.execute(views[o.PID], o.Candidate)
		d := obs.Decision{At: a.e.clk.Now(), Partition: uint64(o.PID), Trigger: o.Reason, Kind: o.Kind.String(),
			Layout: o.NewLayout.String(), Net: o.Net, PlanTime: took[o.PID], ExecTime: a.e.clk.Since(start), Executed: err == nil}
		if err != nil {
			d.Err = err.Error()
			a.e.Trace.Add(d)
			continue
		}
		a.e.Trace.Add(d)
		a.changes.Add(1)
		_, execClass := layoutClasses(o.Reason)
		a.e.stats.Record(execClass, a.e.clk.Since(start))
		if _, ok := hist.Undoes(o.Candidate); ok {
			a.reverted.Add(1)
		}
		switch o.Kind {
		case asa.SplitHorizontal, asa.SplitVertical, asa.MergeWith:
			delete(a.last, o.PID) // retired; a merge's partner too
			delete(a.last, o.Other)
		default:
			a.last[o.PID] = asa.Executed{Candidate: o.Candidate, At: a.e.clk.Now()}
		}
	}
}

// layoutClasses are the stats classes a reason's planning and executed
// changes count under: OLTP for the OLTP plan trigger, OLAP otherwise.
func layoutClasses(reason string) (planC, execC OpClass) {
	if reason == "oltp-plan" {
		return ClassOLTPLayoutPlan, ClassOLTPLayoutExec
	}
	return ClassOLAPLayoutPlan, ClassOLAPLayoutExec
}

// options generates and evaluates one partition's options: its
// flag-enabled candidates, a merge with its cold right neighbour, and the
// storage-pressure responses at each pressured site holding a memory-tier
// copy.
func (a *Advisor) options(view asa.PartitionView, reason string, merges map[partition.ID]partition.ID, mem []asa.Memory) []asa.Option {
	var opts []asa.Option
	for _, c := range a.evaluate(view) {
		opts = append(opts, asa.Option{Candidate: c, Reason: reason, Adds: asa.Grows(view, c)})
	}
	if right, ok := merges[view.PID]; ok {
		c := asa.Candidate{Kind: asa.MergeWith, PID: view.PID, Other: right, Site: view.Master.Site}
		opts = append(opts, asa.Option{Candidate: a.eval.Evaluate(view, c), Reason: "merge"})
	}
	for s, m := range mem {
		site := simnet.SiteID(s)
		p, ok := a.e.siteOf(site).Partition(view.PID)
		if !m.Pressured() || !ok || p.Layout().Tier != storage.MemoryTier {
			continue
		}
		for _, co := range asa.CapacityCandidates(view, site, a.cfg.Flags, int64(p.Stats().Bytes)) {
			c := co.Candidate
			if co.BytesFreed <= 0 || !a.viable(view, c) {
				continue
			}
			opts = append(opts, asa.Option{Candidate: a.eval.Evaluate(view, c), Reason: "capacity",
				FreeSite: site, Frees: co.BytesFreed, Adds: asa.Grows(view, c)})
		}
	}
	return opts
}

// viable drops what the engine should not run: a split of a partition
// under MinSplitRows, and any change placing work on a down site.
func (a *Advisor) viable(view asa.PartitionView, c asa.Candidate) bool {
	if (c.Kind == asa.SplitHorizontal || c.Kind == asa.SplitVertical) && view.Rows < a.cfg.MinSplitRows {
		return false
	}
	return int(c.Site) < 0 || int(c.Site) >= len(a.e.Sites) || !a.e.siteOf(c.Site).Down()
}

// evaluate generates and evaluates the partition's viable flag-enabled
// candidates. With decision reuse (§5.3.3), a bucketed view whose best
// change was positive before reapplies it, if still viable, with its
// cached costs. Only positive decisions are stored: rejections
// re-evaluate as rates and models evolve.
func (a *Advisor) evaluate(view asa.PartitionView) []asa.Candidate {
	var cands []asa.Candidate
	for _, c := range asa.GenerateCandidates(view, a.cfg.Flags, len(a.e.Sites)) {
		if a.viable(view, c) {
			cands = append(cands, c)
		}
	}
	var key string
	if a.cfg.Flags.DecisionReuse {
		// The view's inputs, bucketed.
		key = plan.Key("layout-change", []string{view.Master.Layout.String(), "reps=" + strconv.Itoa(len(view.Replicas))},
			[]float64{float64(view.Rows), view.Rates.Updates, view.Rates.PointReads, view.Rates.Scans, float64(view.ContentionWaiters)})
		if d, ok := a.decisions.Lookup(key); ok {
			cached := d.(asa.Candidate)
			for _, c := range cands {
				if c.Kind == cached.Kind && c.NewLayout == cached.NewLayout {
					c.Net, c.Upfront = cached.Net, cached.Upfront
					return []asa.Candidate{c}
				}
			}
		}
	}
	for i := range cands {
		cands[i] = a.eval.Evaluate(view, cands[i])
	}
	if key != "" && len(cands) > 0 {
		if best := slices.MaxFunc(cands, func(x, y asa.Candidate) int { return cmp.Compare(x.Net, y.Net) }); best.Net > 0 {
			a.decisions.Store(key, best)
		}
	}
	return cands
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
	return errors.New("cluster: unknown candidate kind " + c.Kind.String())
}

// checkCapacity reads every site's memory tier and enqueues each
// partition with a memory-tier copy at a site under pressure (§5.3.2's
// capacity trigger). A down site reads as unlimited: nothing runs there.
func (a *Advisor) checkCapacity() []asa.Memory {
	mem := make([]asa.Memory, len(a.e.Sites))
	for i, s := range a.e.Sites {
		if s.Down() {
			continue
		}
		if mem[i] = (asa.Memory{Used: s.MemUsage(), Cap: s.MemCapacity()}); !mem[i].Pressured() {
			continue
		}
		for _, p := range s.Partitions() {
			if p.Layout().Tier == storage.MemoryTier {
				a.enqueue(p.ID, "capacity")
			}
		}
	}
	return mem
}

// checkMerges enqueues the left of each pair of adjacent cold partitions
// of one table and column range mastered at one site (§6.3.4: "Over time,
// Proteus merges these partitions into larger partitions" once inserted
// data becomes read-only), and returns each one's right neighbour.
func (a *Advisor) checkMerges() map[partition.ID]partition.ID {
	if !a.cfg.Flags.Merging {
		return nil
	}
	type group struct {
		table schema.TableID
		cols  [2]schema.ColID
		site  simnet.SiteID
	}
	groups := map[group][]*metadata.PartitionMeta{}
	for _, m := range a.e.Dir.All() {
		if site := m.Master().Site; !a.e.siteOf(site).Down() {
			k := group{m.Bounds.Table, [2]schema.ColID{m.Bounds.ColStart, m.Bounds.ColEnd}, site}
			groups[k] = append(groups[k], m)
		}
	}
	const coldRate = 0.5 // accesses/sec below which a partition is "cold"
	cold := func(m *metadata.PartitionMeta) bool {
		return m.Tracker.RecentRate(forecast.Update, 8)+m.Tracker.RecentRate(forecast.PointRead, 8)+
			m.Tracker.RecentRate(forecast.Scan, 8) <= coldRate
	}
	merges := map[partition.ID]partition.ID{}
	for _, ms := range groups {
		slices.SortFunc(ms, func(x, y *metadata.PartitionMeta) int { return cmp.Compare(x.Bounds.RowStart, y.Bounds.RowStart) })
		for i := 0; i+1 < len(ms); i++ {
			l, r := ms[i], ms[i+1]
			if l.Bounds.RowEnd == r.Bounds.RowStart && cold(l) && cold(r) {
				merges[l.ID] = r.ID
				a.enqueue(l.ID, "merge")
			}
		}
	}
	return merges
}

// checkPredictive adds the four partitions no request touched whose
// predicted access rate diverges most from the recent one (§5.3.2's
// predictive trigger); the pass plans them on the predicted rates.
func (a *Advisor) checkPredictive() {
	gaps := map[partition.ID]float64{}
	var worst []partition.ID
	horizon := a.cfg.Horizon.Seconds()
	for _, m := range a.e.Dir.All() {
		recent := m.Tracker.RecentRate(forecast.Update, 8) + m.Tracker.RecentRate(forecast.Scan, 8)
		a.pendMu.Lock()
		_, touched := a.pending[m.ID]
		a.pendMu.Unlock()
		if touched || recent == 0 && m.Tracker.Total(forecast.Update)+m.Tracker.Total(forecast.Scan) == 0 {
			continue
		}
		pr := a.predictedRates(m, horizon)
		if gap := math.Abs((pr.Updates+pr.Scans)/horizon - recent); gap > 0.25*max(recent, 1) {
			gaps[m.ID], worst = gap, append(worst, m.ID)
		}
	}
	slices.SortFunc(worst, func(x, y partition.ID) int { return cmp.Or(cmp.Compare(gaps[y], gaps[x]), cmp.Compare(x, y)) })
	for _, pid := range worst[:min(len(worst), 4)] {
		a.enqueue(pid, "predictive")
	}
}
