package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"proteus/internal/admission"
	"proteus/internal/cost"
	"proteus/internal/exec"
	"proteus/internal/faults"
	"proteus/internal/forecast"
	"proteus/internal/partition"
	"proteus/internal/plan"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/txn"
	"proteus/internal/types"
	"proteus/internal/vclock"
)

// ErrStalePlan reports that a physical plan referenced a partition copy
// that a concurrent layout change moved or removed; the request re-plans
// against the new layout epoch and retries.
var ErrStalePlan = errors.New("cluster: physical plan stale after layout change")

// ExecuteQuery runs an OLAP query tree, producing the final relation at
// the coordinating site (§4.3, Figure 7b), re-planned and retried as
// withRetries describes. Cancelling ctx aborts the query, closing the
// morsel feeds of any in-flight parallel scan.
func (e *Engine) ExecuteQuery(ctx context.Context, sess *Session, q *query.Query) (exec.Rel, error) {
	var rel exec.Rel
	err := e.withRetries(ctx, admission.PriorityOLAP, func() (err error) {
		rel, err = e.executeQueryOnce(ctx, sess, q)
		return err
	})
	return rel, err
}

// queryDeadline is the retry cutoff: the context's deadline when one is
// set, else now + the configured operation deadline.
func (e *Engine) queryDeadline(ctx context.Context) time.Time {
	if d, ok := ctx.Deadline(); ok {
		return d
	}
	return e.clk.Now().Add(e.opDeadline())
}

// sleepRetry waits out a backoff delay, aborting early when ctx ends.
func (e *Engine) sleepRetry(ctx context.Context, d time.Duration) error {
	return vclock.SleepCtx(ctx, e.clk, d)
}

func (e *Engine) executeQueryOnce(ctx context.Context, sess *Session, q *query.Query) (exec.Rel, error) {
	if err := ctx.Err(); err != nil {
		return exec.Rel{}, err
	}
	planStart := e.clk.Now()
	pn, err := e.Planner.PlanQuery(q)
	if err != nil {
		return exec.Rel{}, err
	}
	e.stats.Record(ClassOLAPPlan, e.clk.Since(planStart))

	pids := collectPIDs(pn)
	snap, slot := e.snapshotFor(sess, pids)
	defer e.snaps.release(slot)
	coord, err := e.pickCoordinator(pn)
	if err != nil {
		return exec.Rel{}, err
	}
	if _, err := e.Net.SendKind(simnet.KindDispatch, simnet.ASASite, coord, 256); err != nil {
		return exec.Rel{}, err
	}
	e.recordQueryAccesses(pn)

	var result exec.Rel
	var execErr error
	start := e.clk.Now()
	if err := e.siteOf(coord).RunOLAP(func() {
		result, execErr = e.evalNode(ctx, pn, snap, coord, q.Limit)
	}); err != nil {
		return exec.Rel{}, err
	}
	d := e.clk.Since(start)
	if execErr != nil {
		return exec.Rel{}, execErr
	}
	e.stats.Record(ClassOLAP, d)

	readVec := make(txn.VersionVector, len(pids))
	for _, pid := range pids {
		readVec[pid] = snap[pid]
	}
	sess.s.Observe(readVec)
	if e.Advisor != nil {
		e.Advisor.onQueryExecuted(pn, d)
	}
	return result, nil
}

// collectPIDs gathers every partition a plan touches.
func collectPIDs(n plan.PNode) []partition.ID {
	seen := map[partition.ID]bool{}
	var out []partition.ID
	var walk func(plan.PNode)
	walk = func(n plan.PNode) {
		switch v := n.(type) {
		case *plan.PScan:
			for _, seg := range v.Segments {
				for _, p := range seg.Pieces {
					if !seen[p.Meta.ID] {
						seen[p.Meta.ID] = true
						out = append(out, p.Meta.ID)
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
	walk(n)
	return out
}

// pickCoordinator picks the live site hosting the most scanned pieces.
// Sites that are down are skipped (graceful degradation); if every site
// is down the typed error surfaces instead of dispatching into a crash.
func (e *Engine) pickCoordinator(n plan.PNode) (simnet.SiteID, error) {
	counts := map[simnet.SiteID]int{}
	var walk func(plan.PNode)
	walk = func(n plan.PNode) {
		switch v := n.(type) {
		case *plan.PScan:
			for _, seg := range v.Segments {
				for _, p := range seg.Pieces {
					counts[p.Copy.Site]++
				}
			}
		case *plan.PJoin:
			walk(v.Left)
			walk(v.Right)
		case *plan.PAgg:
			walk(v.Child)
		}
	}
	walk(n)
	best, bestN := simnet.SiteID(0), -1
	for s, n := range counts {
		if e.siteOf(s).Down() {
			continue
		}
		if n > bestN || (n == bestN && s < best) {
			best, bestN = s, n
		}
	}
	if bestN >= 0 {
		return best, nil
	}
	// No planned site is up: coordinate from any live site.
	for _, s := range e.Sites {
		if !s.Down() {
			return s.ID, nil
		}
	}
	return 0, fmt.Errorf("%w: no live site to coordinate query", faults.ErrSiteDown)
}

// recordQueryAccesses updates scan trackers, column stats and join
// co-access edges.
func (e *Engine) recordQueryAccesses(n plan.PNode) {
	switch v := n.(type) {
	case *plan.PScan:
		for _, seg := range v.Segments {
			for _, p := range seg.Pieces {
				p.Meta.Tracker.Record(forecast.Scan, 1)
			}
		}
		e.Dir.RecordColumnAccess(v.Table, v.Cols, false)
	case *plan.PJoin:
		e.recordQueryAccesses(v.Left)
		e.recordQueryAccesses(v.Right)
		lp, rp := collectPIDs(v.Left), collectPIDs(v.Right)
		if len(lp)*len(rp) <= 64 {
			for _, a := range lp {
				if ma, ok := e.Dir.Get(a); ok {
					for _, b := range rp {
						ma.RecordCoAccess(b, 1)
					}
				}
			}
		}
	case *plan.PAgg:
		e.recordQueryAccesses(v.Child)
	}
}

// evalNode evaluates a physical plan node into rows at the coordinator,
// stopping after limit rows (0 = all). Scans and joins run on the morsel
// executor, which pushes the limit into the scan feed; an aggregate
// finalizes its partials and truncates.
func (e *Engine) evalNode(ctx context.Context, n plan.PNode, snap txn.VersionVector, coord simnet.SiteID, limit int) (exec.Rel, error) {
	switch v := n.(type) {
	case *plan.PScan:
		return e.morselGather(ctx, v, snap, coord, limit)
	case *plan.PJoin:
		return e.evalBatchJoinRows(ctx, v, snap, coord, limit)
	case *plan.PAgg:
		rel, err := e.evalAgg(ctx, v, snap, coord)
		if err != nil {
			return exec.Rel{}, err
		}
		if limit > 0 && len(rel.Tuples) > limit {
			rel.Tuples = rel.Tuples[:limit]
		}
		return rel, nil
	}
	return exec.Rel{}, fmt.Errorf("cluster: unknown plan node %T", n)
}

// evalAgg executes an aggregation. Over a scan or a join, partial
// aggregation runs inside the scan workers; over another aggregate, the
// child's result materializes and aggregates at the coordinator.
func (e *Engine) evalAgg(ctx context.Context, pa *plan.PAgg, snap txn.VersionVector, coord simnet.SiteID) (exec.Rel, error) {
	switch child := pa.Child.(type) {
	case *plan.PScan:
		return e.morselAgg(ctx, pa, child, snap, coord)
	case *plan.PJoin:
		return e.evalBatchJoinAgg(ctx, pa, child, snap, coord)
	}
	rel, err := e.evalNode(ctx, pa.Child, snap, coord, 0)
	if err != nil {
		return exec.Rel{}, err
	}
	out, obs := exec.HashAggregate(rel, pa.GroupBy, pa.Aggs)
	e.siteOf(coord).Observe(obs)
	return out, nil
}

// sitePartition resolves a copy of pid at a site, catching a replica up to
// the snapshot version. When the planned copy has been moved or removed by
// a concurrent layout change, the current master is used instead; if the
// partition no longer exists at all, the plan is stale.
func (e *Engine) sitePartition(pid partition.ID, siteID simnet.SiteID, snapVer uint64) (*partition.Partition, error) {
	s := e.siteOf(siteID)
	p, ok := s.Partition(pid)
	if !ok || s.Down() {
		m, found := e.Dir.Get(pid)
		if !found {
			return nil, fmt.Errorf("%w: partition %d repartitioned", ErrStalePlan, pid)
		}
		rep, live := e.liveCopy(m)
		if !live {
			return nil, fmt.Errorf("%w: partition %d has no live copy", faults.ErrSiteDown, pid)
		}
		s = e.siteOf(rep.Site)
		if p, ok = s.Partition(pid); !ok {
			return nil, fmt.Errorf("%w: partition %d has no resolvable copy", ErrStalePlan, pid)
		}
	}
	if !s.IsMaster(pid) && p.Version() < snapVer {
		start := e.clk.Now()
		if _, err := s.Repl.CatchUp(pid, snapVer); err != nil {
			return nil, err
		}
		s.Observe(cost.Observation{
			Op:       cost.OpWaitUpdates,
			Features: cost.WaitFeatures(1),
			Latency:  e.clk.Since(start),
		})
	}
	return p, nil
}

// shipTo moves a relation between sites (retrying dropped messages) and
// records the network observation. A persistent fault surfaces as the
// typed error so the query can re-plan around it.
func (e *Engine) shipTo(k simnet.Kind, from, to simnet.SiteID, rel exec.Rel) error {
	return e.shipBytesTo(k, from, to, rel.NumRows()*rel.RowBytes()+64)
}

// shipBytesTo is shipTo for callers that already know the payload size
// (columnar chunks from the batch-join scan path).
func (e *Engine) shipBytesTo(k simnet.Kind, from, to simnet.SiteID, bytes int) error {
	return e.exchange(k, from, to, bytes, -1)
}

// exchange sends a req-byte message of kind k and, unless reply < 0, the
// reply-byte answer back, retrying dropped messages (a dropped reply
// re-sends both), and records one network observation. A persistent fault
// surfaces as the typed error so the operation can re-plan around it.
func (e *Engine) exchange(k simnet.Kind, from, to simnet.SiteID, req, reply int) error {
	if from == to {
		return nil
	}
	var d time.Duration
	if err := e.Faults.Retry(e.sendBackoff(), func() error {
		dd, err := e.Net.SendKind(k, from, to, req)
		d += dd
		if err != nil || reply < 0 {
			return err
		}
		dd, err = e.Net.SendKind(k, to, from, reply)
		d += dd
		return err
	}); err != nil {
		return err
	}
	e.siteOf(from).Observe(cost.Observation{
		Op:       cost.OpNetwork,
		Features: cost.NetworkFeatures(e.siteOf(from).CPU(), e.siteOf(to).CPU(), req, max(reply, 0)),
		Latency:  d,
	})
	return nil
}

// colLabels holds the labels of the low column ids, so labelling a query's
// output costs one slice rather than one formatted string per column.
var colLabels = func() (t [64]string) {
	for i := range t {
		t[i] = "c" + strconv.Itoa(i)
	}
	return t
}()

// colNames labels columns "c<id>".
func colNames(cols []schema.ColID) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = colName(c)
	}
	return out
}

// colName labels column c "c<id>".
func colName(c schema.ColID) string {
	if uint(c) < uint(len(colLabels)) {
		return colLabels[c]
	}
	return "c" + strconv.Itoa(int(c))
}

// finalizeAgg combines partial aggregates at the coordinator and
// reconstructs AVG columns.
func (e *Engine) finalizeAgg(pa *plan.PAgg, partials exec.Rel, coord simnet.SiteID) exec.Rel {
	groupPos := make([]int, len(pa.GroupBy))
	for i := range pa.GroupBy {
		groupPos[i] = i // partial layout: [groups..., partial aggs...]
	}
	combined, obs := exec.HashAggregate(partials, groupPos, pa.FinalAggs)
	e.siteOf(coord).Observe(obs)

	// combined layout: [groups..., finalAgg results...]; map back to the
	// requested [groups..., aggs...] layout with AVG = sum/count.
	out := exec.Rel{Cols: combined.Cols[:len(pa.GroupBy)]}
	for _, a := range pa.Aggs {
		out.Cols = append(out.Cols, a.Func.String())
	}
	ng := len(pa.GroupBy)
	w := ng + len(pa.Aggs)
	back := make([]types.Value, len(combined.Tuples)*w)
	out.Tuples = make([][]types.Value, len(combined.Tuples))
	for i, t := range combined.Tuples {
		row := append(back[i*w:i*w:(i+1)*w], t[:ng]...)
		fi := ng // cursor into final agg outputs
		for _, a := range pa.Aggs {
			if a.Func == exec.AggAvg {
				sum := t[fi]
				cnt := t[fi+1]
				fi += 2
				if cnt.Float() > 0 {
					row = append(row, types.NewFloat64(sum.Float()/cnt.Float()))
				} else {
					row = append(row, types.Null())
				}
			} else {
				row = append(row, t[fi])
				fi++
			}
		}
		out.Tuples[i] = row
	}
	return out
}

// ExecuteQueryStream runs an OLAP query and returns a cursor streaming
// result rows incrementally. A scan root — and a bare join pipelined over
// one, once its build sides are hashed — streams natively:
// rows arrive as bounded batches while the scan is still running, and
// closing the cursor early (or cancelling ctx, or reaching the query's
// Limit) closes the morsel feeds so workers stop promptly. Other plan
// shapes materialize at the coordinator first and the cursor iterates the
// result. Retriable planning/setup failures are retried exactly as
// ExecuteQuery retries them; once streaming has begun, failures surface
// through the cursor's Err and are not retried.
func (e *Engine) ExecuteQueryStream(ctx context.Context, sess *Session, q *query.Query) (*RowCursor, error) {
	var cur *RowCursor
	err := e.withRetries(ctx, admission.PriorityOLAP, func() (err error) {
		cur, err = e.streamOnce(ctx, sess, q)
		return err
	})
	return cur, err
}

func (e *Engine) streamOnce(ctx context.Context, sess *Session, q *query.Query) (*RowCursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	planStart := e.clk.Now()
	pn, err := e.Planner.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	e.stats.Record(ClassOLAPPlan, e.clk.Since(planStart))
	return e.streamPlan(ctx, sess, pn, q.Limit)
}

// streamPlan runs a planned query as ExecuteQueryStream does; limit > 0
// ends the stream after that many rows.
func (e *Engine) streamPlan(ctx context.Context, sess *Session, pn plan.PNode, limit int) (*RowCursor, error) {
	pids := collectPIDs(pn)
	snap, slot := e.snapshotFor(sess, pids)
	streaming := false
	defer func() {
		if !streaming {
			e.snaps.release(slot) // a streaming cursor releases it at EOF or Close
		}
	}()
	coord, err := e.pickCoordinator(pn)
	if err != nil {
		return nil, err
	}
	if _, err := e.Net.SendKind(simnet.KindDispatch, simnet.ASASite, coord, 256); err != nil {
		return nil, err
	}
	e.recordQueryAccesses(pn)
	readVec := make(txn.VersionVector, len(pids))
	for _, pid := range pids {
		readVec[pid] = snap[pid]
	}
	sess.s.Observe(readVec)

	start := e.clk.Now()
	onEOF := func(err error) {
		if err == nil {
			d := e.clk.Since(start)
			e.stats.Record(ClassOLAP, d)
			if e.Advisor != nil {
				e.Advisor.onQueryExecuted(pn, d)
			}
		}
	}

	var j *morselJob
	switch v := pn.(type) {
	case *plan.PScan:
		j, err = e.buildMorselJob(ctx, v, snap, coord)
	case *plan.PJoin:
		// The build sides are evaluated at the coordinator before the first
		// row streams; a nil job falls through to materializing.
		if rerr := e.siteOf(coord).RunOLAP(func() {
			j, err = e.joinJob(ctx, v, nil, snap, coord)
		}); rerr != nil {
			return nil, rerr
		}
	}
	if err != nil {
		return nil, err
	}
	if j != nil {
		streaming = true
		out := make(chan exec.Rel, 2*len(e.Sites)+2)
		j.runRows(out)
		return newMorselCursor(j, out, limit, func(err error) {
			e.snaps.release(slot)
			onEOF(err)
		}), nil
	}

	// An aggregate, or a join the pipeline cannot serve: materialize, then
	// iterate.
	var result exec.Rel
	var execErr error
	if err := e.siteOf(coord).RunOLAP(func() {
		result, execErr = e.evalNode(ctx, pn, snap, coord, limit)
	}); err != nil {
		return nil, err
	}
	if execErr != nil {
		return nil, execErr
	}
	return newStaticCursor(result, onEOF), nil
}
