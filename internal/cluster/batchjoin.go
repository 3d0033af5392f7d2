// Batch-native join execution (§4.3), the one way every join runs. Each
// join's smaller input — by estimate — is the build side: it is evaluated
// to the coordinator and hashed into one immutable exec.JoinTable. The
// other side is never materialized when it bottoms out in a scan: the
// tables of the whole left-deep chain are shipped, as one message, to every
// site holding probe morsels, their min-max bounds are pushed into the
// scan predicate (zone maps prune morsels before scheduling), and the scan
// workers probe each batch through the chain (exec.Prober) before handing
// it to the query's sink — per-site partial aggregates for an aggregation
// parent, one columnar share per site for a bare join gathered whole, row
// batches for one streamed to a cursor or cut by a LIMIT. A build side
// scan reaches the coordinator the same way, one message per site. What still
// materializes both sides at the coordinator (materializeJoin →
// exec.BatchHashJoin, same table) is what the pipeline cannot serve: a
// build side over the spill budget, which grace-partitions through the
// spill device, and a probe side that is not a scan (an aggregate).
package cluster

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"

	"proteus/internal/cost"
	"proteus/internal/exec"
	"proteus/internal/plan"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/txn"
)

// defaultJoinSpillBudget bounds an in-memory build side before the join
// grace-partitions through the spill device.
const defaultJoinSpillBudget = 64 << 20

// joinSpill returns the engine's spill policy for batch hash joins.
func (e *Engine) joinSpill() *exec.JoinSpill {
	budget := e.cfg.JoinSpillBudget
	if budget <= 0 {
		budget = defaultJoinSpillBudget
	}
	return &exec.JoinSpill{Device: e.spill, Budget: budget}
}

// nodeEstRows is a subtree's estimated output rows. A grouped aggregate
// yields at most its input's rows, an ungrouped one a single row.
func nodeEstRows(n plan.PNode) int {
	switch v := n.(type) {
	case *plan.PScan:
		return v.EstRows
	case *plan.PJoin:
		return v.EstRows
	case *plan.PAgg:
		if len(v.GroupBy) == 0 {
			return 1
		}
		return nodeEstRows(v.Child)
	}
	return 0
}

// nodeColLabels mirrors the output labels evalNode produces for a subtree.
func nodeColLabels(n plan.PNode) []string {
	switch v := n.(type) {
	case *plan.PScan:
		return colNames(v.Cols)
	case *plan.PJoin:
		return append(nodeColLabels(v.Left), nodeColLabels(v.Right)...)
	case *plan.PAgg:
		child := nodeColLabels(v.Child)
		out := make([]string, 0, len(v.GroupBy)+len(v.Aggs))
		for _, g := range v.GroupBy {
			out = append(out, child[g])
		}
		for _, a := range v.Aggs {
			out = append(out, a.Func.String())
		}
		return out
	}
	return nil
}

// addPos inserts p into a sorted unique position list.
func addPos(ps []int, p int) []int {
	i := sort.SearchInts(ps, p)
	if i < len(ps) && ps[i] == p {
		return ps
	}
	ps = append(ps, 0)
	copy(ps[i+1:], ps[i:])
	ps[i] = p
	return ps
}

// posIndex is p's index in a sorted position list (-1 when absent).
func posIndex(ps []int, p int) int {
	i := sort.SearchInts(ps, p)
	if i < len(ps) && ps[i] == p {
		return i
	}
	return -1
}

// probeChain is a join subtree flattened for pipelined execution: the scan
// feeding its probe side and, innermost join first, the build sides the
// scanned rows are probed against.
type probeChain struct {
	scan   *plan.PScan
	builds []chainBuild
}

type chainBuild struct {
	node  plan.PNode
	key   int         // join key position in node's output
	probe exec.ColRef // where the probe key comes from
}

// flattenJoin resolves a join subtree into ch and returns the source of
// each of its output columns. Every join builds on the side estimated
// smaller and probes with the other, so the probe side descends through
// joins to one leaf; build sides may be subtrees of any shape. When that
// leaf is not a scan, ch.scan stays nil and flattenJoin returns nil. flip
// reverses the choice for the innermost join — the one probed by the scan
// itself — when its build side is a scan too.
func flattenJoin(n plan.PNode, ch *probeChain, flip bool) []exec.ColRef {
	switch v := n.(type) {
	case *plan.PScan:
		ch.scan = v
		refs := make([]exec.ColRef, len(v.Cols))
		for i := range refs {
			refs[i] = exec.ColRef{Stage: -1, Col: i}
		}
		return refs
	case *plan.PJoin:
		probe, build, pKey, bKey := v.Left, v.Right, v.LeftKey, v.RightKey
		buildLeft := nodeEstRows(v.Left) < nodeEstRows(v.Right)
		_, leftScan := v.Left.(*plan.PScan)
		_, rightScan := v.Right.(*plan.PScan)
		if flip && leftScan && rightScan {
			buildLeft = !buildLeft
		}
		if buildLeft {
			probe, build, pKey, bKey = v.Right, v.Left, v.RightKey, v.LeftKey
		}
		prefs := flattenJoin(probe, ch, flip)
		if prefs == nil {
			return nil
		}
		k := len(ch.builds)
		ch.builds = append(ch.builds, chainBuild{node: build, key: bKey, probe: prefs[pKey]})
		brefs := make([]exec.ColRef, plan.OutputWidth(build))
		for i := range brefs {
			brefs[i] = exec.ColRef{Stage: k, Col: i}
		}
		if buildLeft {
			return append(brefs, prefs...)
		}
		return append(prefs, brefs...)
	}
	return nil
}

// projectScan narrows a scan to the need positions of its output (sorted
// ascending; nil means all). The plan node is cached, so a narrower scan is
// a clone: the projection reaches the storage layer, and dropped payload
// columns are never decoded or shipped.
func projectScan(ps *plan.PScan, need []int) *plan.PScan {
	if need == nil || len(need) >= len(ps.Cols) {
		return ps
	}
	clone := *ps
	clone.Cols = make([]schema.ColID, len(need))
	for i, p := range need {
		clone.Cols[i] = ps.Cols[p]
	}
	return &clone
}

// errRowCap ends a build-side evaluation that was given a row cap and
// exceeded it.
var errRowCap = errors.New("cluster: build side over its row cap")

// scanRows is an upper bound on the rows a scan can return: the row count
// of the partitions it reads (0 when unknown).
func scanRows(ps *plan.PScan) int {
	n := 0
	for _, seg := range ps.Segments {
		zm := seg.Pieces[0].Meta.ZoneMap
		if zm == nil {
			return 0
		}
		n += zm.Rows()
	}
	return n
}

// joinJob prepares the pipelined execution of a join subtree: it evaluates
// every build side to the coordinator, hashes each into a JoinTable, pushes
// the tables' bounds into the probe scan, ships the tables once to every
// remote site holding probe morsels, and returns the scan's morsel job with
// the probe pipeline installed — ready for whichever sink the caller runs.
// need lists the output positions the sink reads (sorted ascending; nil
// means all): each input is narrowed to those plus its join keys. A nil job
// with a nil error means the pipeline cannot apply — the probe side is not
// a scan, or a build side is over the spill budget — and the caller
// materializes instead.
//
// Which side builds follows the planner's estimates, and an estimate can
// be wrong by orders of magnitude (a uniform min-max model over a column
// with a sentinel value). Where both inputs of the innermost join are
// scans the mistake is bounded: the build scan is abandoned as soon as it
// has produced more rows than the probe side's partitions hold — proof
// that the other side is the smaller one — and the join is redone with the
// roles swapped, having shipped at most that many rows for nothing.
func (e *Engine) joinJob(ctx context.Context, pj *plan.PJoin, need []int, snap txn.VersionVector, coord simnet.SiteID) (*morselJob, error) {
	j, err := e.pipeJoin(ctx, pj, need, snap, coord, false)
	if errors.Is(err, errRowCap) {
		j, err = e.pipeJoin(ctx, pj, need, snap, coord, true)
	}
	return j, err
}

// pipeJoin is joinJob for one orientation of the innermost join: the
// planner's, with the build scan capped (errRowCap when it is exceeded),
// or, with flip set, the reverse, uncapped.
func (e *Engine) pipeJoin(ctx context.Context, pj *plan.PJoin, need []int, snap txn.VersionVector, coord simnet.SiteID, flip bool) (*morselJob, error) {
	var ch probeChain
	refs := flattenJoin(pj, &ch, flip)
	if ch.scan == nil {
		return nil, nil
	}
	labels := projectLabels(nodeColLabels(pj), need)
	out := make([]exec.ColRef, len(labels))
	for i := range out {
		if need != nil {
			out[i] = refs[need[i]]
		} else {
			out[i] = refs[i]
		}
	}

	// Each input's column footprint: what the sink reads plus every key.
	scanNeed := []int{}
	buildNeed := make([][]int, len(ch.builds))
	use := func(r exec.ColRef) {
		if r.Stage < 0 {
			scanNeed = addPos(scanNeed, r.Col)
		} else {
			buildNeed[r.Stage] = addPos(buildNeed[r.Stage], r.Col)
		}
	}
	for _, r := range out {
		use(r)
	}
	for k, b := range ch.builds {
		use(b.probe)
		buildNeed[k] = addPos(buildNeed[k], b.key)
	}
	narrowed := func(r exec.ColRef) exec.ColRef {
		if r.Stage < 0 {
			r.Col = posIndex(scanNeed, r.Col)
		} else {
			r.Col = posIndex(buildNeed[r.Stage], r.Col)
		}
		return r
	}
	scan := projectScan(ch.scan, scanNeed)

	spill := e.joinSpill()
	stages := make([]exec.ProbeStage, 0, len(ch.builds))
	pred := scan.Pred
	for k, b := range ch.builds {
		rowCap := 0
		if _, isScan := b.node.(*plan.PScan); isScan && k == 0 && !flip {
			rowCap = scanRows(ch.scan)
		}
		c, err := e.evalColInput(ctx, b.node, snap, coord, nil, -1, buildNeed[k], rowCap)
		if err != nil {
			return nil, err
		}
		if c.NumRows() == 0 {
			// An inner join against zero rows is empty: no later build is
			// evaluated and no probe morsel is scheduled.
			stages = nil
			break
		}
		if c.NumRows() > 1 && c.Bytes() > spill.Budget {
			return nil, nil
		}
		st := exec.ProbeStage{
			Table: exec.BuildJoinTable(&c, posIndex(buildNeed[k], b.key)),
			Key:   narrowed(b.probe),
		}
		stages = append(stages, st)
		if st.Key.Stage < 0 {
			if bounds := st.Table.Filter().BoundsPred(scan.Cols[st.Key.Col]); bounds != nil {
				pred = append(append(storage.Pred{}, pred...), bounds...)
				exec.RecordRFBoundsPush()
			}
		}
	}
	if stages == nil || len(pred) != len(scan.Pred) {
		clone := *scan // plans are cached: never mutate the node itself
		clone.Pred = pred
		if stages == nil {
			clone.Segments = nil
		}
		scan = &clone
	}

	j, err := e.buildMorselJob(ctx, scan, snap, coord)
	if err != nil {
		return nil, err
	}
	j.cols = labels
	if stages != nil {
		for i := range out {
			out[i] = narrowed(out[i])
		}
		if err := j.installPipe(exec.NewJoinPipe(stages, out)); err != nil {
			j.cancel()
			return nil, err
		}
	}
	return j, nil
}

// installPipe puts a probe pipeline in front of the job's sinks and ships
// all of its stages, as one message, to every remote site that holds probe
// morsels — the coordinator's own workers read them in place — so the
// modelled network and fault injection see what a site-local probe costs.
func (j *morselJob) installPipe(p *exec.JoinPipe) error {
	j.pipe = p
	var bytes int64
	for k := range p.Stages {
		bytes += p.Stages[k].WireBytes()
	}
	for _, s := range j.e.Sites {
		if _, probes := j.units[s.ID]; !probes || s.ID == j.coord {
			continue
		}
		if err := j.e.shipBytesTo(simnet.KindJoin, j.coord, s.ID, int(bytes)); err != nil {
			return err
		}
		exec.RecordJoinBroadcast(bytes)
	}
	return nil
}

// evalBatchJoin executes a join subtree on the batch engine, returning the
// joined columnar relation: pipelined and gathered one share per site
// where joinJob applies, materialized otherwise. need lists the output column positions
// the parent will read, sorted ascending (nil means all).
func (e *Engine) evalBatchJoin(ctx context.Context, pj *plan.PJoin, snap txn.VersionVector, coord simnet.SiteID, need []int) (exec.ColRel, error) {
	j, err := e.joinJob(ctx, pj, need, snap, coord)
	if err != nil {
		return exec.ColRel{}, err
	}
	if j == nil {
		return e.materializeJoin(ctx, pj, snap, coord, need)
	}
	defer j.cancel()
	return j.gatherCols(0)
}

// evalBatchJoinRows executes a bare join at the plan root into boxed rows.
// A query LIMIT (0 = none) is pushed into the pipelined scan, streaming;
// without one, the pipelined join is gathered columnar.
func (e *Engine) evalBatchJoinRows(ctx context.Context, pj *plan.PJoin, snap txn.VersionVector, coord simnet.SiteID, limit int) (exec.Rel, error) {
	j, err := e.joinJob(ctx, pj, nil, snap, coord)
	if err != nil {
		return exec.Rel{}, err
	}
	var c exec.ColRel
	if j != nil {
		defer j.cancel()
		if limit > 0 {
			return j.gatherRows(ctx, limit)
		}
		c, err = j.gatherCols(0)
	} else {
		c, err = e.materializeJoin(ctx, pj, snap, coord, nil)
	}
	if err != nil {
		return exec.Rel{}, err
	}
	rel := c.Rel()
	if limit > 0 && len(rel.Tuples) > limit {
		rel.Tuples = rel.Tuples[:limit]
	}
	return rel, nil
}

// materializeJoin joins both inputs as whole columnar relations at the
// coordinator: the smaller side is evaluated first and folded into a
// Bloom/min-max runtime filter pushed into the other side's evaluation,
// and exec.BatchHashJoin joins the two — spilling through the grace path
// when the build side exceeds the budget. The projection is pushed down so
// untouched payload columns are neither scanned, shipped, nor gathered.
func (e *Engine) materializeJoin(ctx context.Context, pj *plan.PJoin, snap txn.VersionVector, coord simnet.SiteID, need []int) (exec.ColRel, error) {
	// Split the projection across the children; each side's join key must
	// be present to join, even when the parent never reads it.
	nL := plan.OutputWidth(pj.Left)
	var needL, needR []int
	lKey, rKey := pj.LeftKey, pj.RightKey
	var projL, projR []int
	if need != nil {
		needL = addPos(nil, pj.LeftKey)
		needR = addPos(nil, pj.RightKey)
		for _, p := range need {
			if p < nL {
				needL = addPos(needL, p)
			} else {
				needR = addPos(needR, p-nL)
			}
		}
		lKey, rKey = posIndex(needL, pj.LeftKey), posIndex(needR, pj.RightKey)
		projL, projR = []int{}, []int{}
		for _, p := range need {
			if p < nL {
				projL = append(projL, posIndex(needL, p))
			} else {
				projR = append(projR, posIndex(needR, p-nL))
			}
		}
	}

	// Evaluate the (estimated) smaller side first so its keys seed the
	// runtime filter pushed into the other side's scan.
	rightFirst := nodeEstRows(pj.Right) <= nodeEstRows(pj.Left)
	var left, right exec.ColRel
	var err error
	if rightFirst {
		if right, err = e.evalColInput(ctx, pj.Right, snap, coord, nil, -1, needR, 0); err != nil {
			return exec.ColRel{}, err
		}
		rf := exec.BuildRuntimeFilter(&right, rKey)
		if left, err = e.evalColInput(ctx, pj.Left, snap, coord, rf, lKey, needL, 0); err != nil {
			return exec.ColRel{}, err
		}
	} else {
		if left, err = e.evalColInput(ctx, pj.Left, snap, coord, nil, -1, needL, 0); err != nil {
			return exec.ColRel{}, err
		}
		rf := exec.BuildRuntimeFilter(&left, lKey)
		if right, err = e.evalColInput(ctx, pj.Right, snap, coord, rf, rKey, needR, 0); err != nil {
			return exec.ColRel{}, err
		}
	}
	out, obs, err := exec.BatchHashJoin(&left, &right, lKey, rKey, e.joinSpill(), projL, projR)
	if err != nil {
		return exec.ColRel{}, err
	}
	e.siteOf(coord).Observe(obs)
	return out, nil
}

// projectLabels picks the labels at need positions (nil need = all).
func projectLabels(labels []string, need []int) []string {
	if need == nil {
		return labels
	}
	out := make([]string, len(need))
	for i, p := range need {
		out[i] = labels[p]
	}
	return out
}

// projectCols reduces a columnar relation to the need positions without
// copying column data (the result shares vectors and must stay read-only).
func projectCols(c *exec.ColRel, need []int) exec.ColRel {
	if need == nil {
		return *c
	}
	out := exec.NewColRel(projectLabels(c.Cols, need))
	for i, p := range need {
		out.Vecs[i] = c.Vecs[p]
	}
	out.SetRows(c.NumRows())
	return out
}

// evalColInput evaluates one join input to columnar form, applying the
// runtime filter rf over (projected) key position rfKey when non-nil and
// restricting output to the need columns (nil means all). An empty build
// side short-circuits the probe entirely: an inner join against zero rows
// is empty, so the scan is never scheduled. A morsel scan given maxRows > 0
// stops with errRowCap once it has gathered more rows than that.
func (e *Engine) evalColInput(ctx context.Context, n plan.PNode, snap txn.VersionVector, coord simnet.SiteID, rf *exec.RuntimeFilter, rfKey int, need []int, maxRows int) (exec.ColRel, error) {
	if rf != nil && rf.Empty() {
		return exec.NewColRel(projectLabels(nodeColLabels(n), need)), nil
	}
	var c exec.ColRel
	switch v := n.(type) {
	case *plan.PScan:
		return e.morselGatherCols(ctx, projectScan(v, need), snap, coord, rf, rfKey, maxRows)
	case *plan.PJoin:
		var err error
		if c, err = e.evalBatchJoin(ctx, v, snap, coord, need); err != nil {
			return exec.ColRel{}, err
		}
	default:
		rel, err := e.evalNode(ctx, n, snap, coord, 0)
		if err != nil {
			return exec.ColRel{}, err
		}
		c = exec.ColRelFromRel(rel)
		c = projectCols(&c, need)
	}
	if rf != nil {
		c = rf.FilterCols(&c, rfKey)
	}
	return c, nil
}

// morselGatherCols runs a morsel scan in columnar mode, materializing the
// result as a ColRel at the coordinator. When a runtime filter is present
// its min-max bounds are appended to a clone of the scan's predicate
// (plans are cached — the node itself must never be mutated) so zone maps
// prune morsels before scheduling, and the filter ships to the scanning
// sites as a table-less probe stage whose Bloom bits narrow each batch's
// selection inside the scan workers.
func (e *Engine) morselGatherCols(ctx context.Context, ps *plan.PScan, snap txn.VersionVector, coord simnet.SiteID, rf *exec.RuntimeFilter, rfKey int, maxRows int) (exec.ColRel, error) {
	scan := ps
	if rf != nil {
		if bounds := rf.BoundsPred(ps.Cols[rfKey]); bounds != nil {
			clone := *ps
			clone.Pred = append(append(storage.Pred{}, ps.Pred...), bounds...)
			scan = &clone
			exec.RecordRFBoundsPush()
		}
	}
	j, err := e.buildMorselJob(ctx, scan, snap, coord)
	if err != nil {
		return exec.ColRel{}, err
	}
	defer j.cancel()
	if rf != nil {
		out := make([]exec.ColRef, len(j.cols))
		for i := range out {
			out[i] = exec.ColRef{Stage: -1, Col: i}
		}
		stage := exec.ProbeStage{Filter: rf, Key: exec.ColRef{Stage: -1, Col: rfKey}}
		if err := j.installPipe(exec.NewJoinPipe([]exec.ProbeStage{stage}, out)); err != nil {
			return exec.ColRel{}, err
		}
	}
	return j.gatherCols(maxRows)
}

// gatherCols materializes the job's output as one ColRel at the
// coordinator, each site's share arriving as one message. With maxRows > 0
// the job fails with errRowCap as soon as more rows than that have been
// gathered, before any site has shipped.
func (j *morselJob) gatherCols(maxRows int) (exec.ColRel, error) {
	var rows atomic.Int64
	shares, err := runSites(j, simnet.KindJoin, func() *colAcc {
		return &colAcc{j: j, cols: exec.NewColRel(j.cols), rows: &rows, maxRows: int64(maxRows)}
	})
	if err != nil {
		return exec.ColRel{}, err
	}
	if len(shares) == 0 {
		return exec.NewColRel(j.cols), nil
	}
	all := shares[0]
	for _, s := range shares[1:] {
		all.merge(s)
	}
	res := all.cols
	for k := range all.more {
		res.AppendCols(&all.more[k])
	}
	j.e.cntMorselRows.Add(int64(res.NumRows()))
	return res, nil
}

// colAcc is gatherCols' sink: a worker appends its batches column-wise and
// sums each batch's byte estimate; a site keeps its other workers' rows as
// more, for the coordinator to concatenate. rows counts the job's gathered
// rows against maxRows (0: no cap).
type colAcc struct {
	j       *morselJob
	cols    exec.ColRel
	more    []exec.ColRel
	bytes   int
	rows    *atomic.Int64
	maxRows int64
}

func (a *colAcc) fold(b *storage.Batch) {
	from := a.cols.NumRows()
	a.cols.AppendBatch(b)
	a.bytes += a.cols.BytesFrom(from)
	if a.maxRows > 0 && a.rows.Add(int64(b.Len())) > a.maxRows {
		a.j.fail(errRowCap)
	}
}

func (a *colAcc) merge(w *colAcc) {
	a.more = append(append(a.more, w.cols), w.more...)
	a.bytes += w.bytes
}

func (a *colAcc) seal() int { return a.bytes }

// evalBatchJoinAgg fuses an aggregation over a batch join. The
// aggregation's column footprint (group keys + aggregate inputs) becomes
// the join tree's projection, so payload columns nobody aggregates are
// never materialized. Pipelined, the join's output never exists at all:
// every scan worker folds its joined batches into its own accumulator,
// workers merge per site, and one partial relation per site crosses the
// network to be finalized exactly as a scan-aggregate's partials are.
// Otherwise the materialized join output folds through the typed
// accumulator paths at the coordinator.
func (e *Engine) evalBatchJoinAgg(ctx context.Context, pa *plan.PAgg, pj *plan.PJoin, snap txn.VersionVector, coord simnet.SiteID) (exec.Rel, error) {
	need := []int{}
	for _, g := range pa.GroupBy {
		need = addPos(need, g)
	}
	for _, a := range pa.Aggs {
		if a.Func != exec.AggCount {
			need = addPos(need, a.Col)
		}
	}
	groupBy := make([]int, len(pa.GroupBy))
	for i, g := range pa.GroupBy {
		groupBy[i] = posIndex(need, g)
	}
	j, err := e.joinJob(ctx, pj, need, snap, coord)
	if err != nil {
		return exec.Rel{}, err
	}
	if j != nil {
		defer j.cancel()
		partials, err := j.runAgg(groupBy, specsOver(pa.PartialAggs, need))
		if err != nil {
			return exec.Rel{}, err
		}
		return e.finalizeAgg(pa, partials, coord), nil
	}
	c, err := e.materializeJoin(ctx, pj, snap, coord, need)
	if err != nil {
		return exec.Rel{}, err
	}
	start := e.clk.Now()
	agg := exec.NewAggregator(groupBy, specsOver(pa.Aggs, need))
	agg.ObserveCols(&c)
	rel := agg.Rel(c.Cols)
	e.siteOf(coord).Observe(cost.Observation{
		Op:       cost.OpAggregate,
		Variant:  cost.AggHash,
		Features: cost.AggFeatures(c.NumRows(), rel.NumRows(), c.RowBytes()),
		Latency:  e.clk.Since(start),
	})
	return rel, nil
}

// specsOver rewrites aggregate inputs as positions in the need projection
// (sorted ascending).
func specsOver(specs []exec.AggSpec, need []int) []exec.AggSpec {
	out := make([]exec.AggSpec, len(specs))
	for i, a := range specs {
		out[i] = a
		if a.Func != exec.AggCount {
			out[i].Col = posIndex(need, a.Col)
		}
	}
	return out
}
