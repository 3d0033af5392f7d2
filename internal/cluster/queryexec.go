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
	pn, err := e.planQuery(ctx, q)
	if err != nil {
		return exec.Rel{}, err
	}
	qs, err := e.startQuery(sess, pn)
	if err != nil {
		return exec.Rel{}, err
	}
	defer e.snaps.release(qs.slot)

	var result exec.Rel
	var execErr error
	start := e.clk.Now()
	if err := e.siteOf(qs.coord).RunOLAP(func() {
		result, execErr = e.evalRoot(ctx, pn, qs.snap, qs.coord, q.Limit)
	}); err != nil {
		return exec.Rel{}, err
	}
	d := e.clk.Since(start)
	if execErr != nil {
		return exec.Rel{}, execErr
	}
	e.stats.Record(ClassOLAP, d)
	sess.s.ObserveOf(qs.snap, qs.pids)
	if e.Advisor != nil {
		e.Advisor.onQueryExecuted(pn)
	}
	return result, nil
}

// planQuery plans q, timing the planner.
func (e *Engine) planQuery(ctx context.Context, q *query.Query) (plan.PNode, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := e.clk.Now()
	pn, err := e.Planner.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	e.stats.Record(ClassOLAPPlan, e.clk.Since(start))
	return pn, nil
}

// queryStart is what both query APIs set up before a plan runs.
type queryStart struct {
	pids  []partition.ID
	snap  txn.VersionVector
	slot  *snapSlot
	coord simnet.SiteID
}

// startQuery is the prologue both query APIs share: it reads a registered
// snapshot of every partition pn touches, picks the coordinator, dispatches
// the plan there and records the plan's accesses. On success the caller
// releases the snapshot; on failure it is already released.
func (e *Engine) startQuery(sess *Session, pn plan.PNode) (queryStart, error) {
	pids := collectPIDs(pn)
	snap, slot := e.snapshotFor(sess, pids)
	coord, err := e.pickCoordinator(pn)
	if err == nil {
		_, err = e.Net.SendKind(simnet.KindDispatch, simnet.ASASite, coord, 256)
	}
	if err != nil {
		e.snaps.release(slot)
		return queryStart{}, err
	}
	e.recordQueryAccesses(pn)
	return queryStart{pids: pids, snap: snap, slot: slot, coord: coord}, nil
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

// evalRoot evaluates a plan root into rows at the coordinator, stopping
// after limit rows (0 = all). A root job (rootJob) streams when there is a
// limit, drained through a cursor whose limit ends the morsel feeds, and is
// otherwise gathered columnar, one message per site. Any other root
// materializes.
func (e *Engine) evalRoot(ctx context.Context, n plan.PNode, snap txn.VersionVector, coord simnet.SiteID, limit int) (exec.Rel, error) {
	j, err := e.rootJob(ctx, n, snap, coord)
	switch {
	case err != nil:
		return exec.Rel{}, err
	case j == nil:
		return e.materialize(ctx, n, snap, coord, limit)
	case limit > 0:
		// The streamed tuples are never reused, so they are kept as they
		// arrive.
		cur := j.cursor(limit, nil)
		rel := exec.Rel{Cols: cur.cols}
		for cur.Next() {
			rel.Tuples = append(rel.Tuples, cur.Row())
		}
		if err := cur.Close(); err != nil {
			return exec.Rel{}, err
		}
		return rel, ctx.Err()
	}
	defer j.cancel()
	c, err := j.gatherCols(j.shipKind())
	if err != nil {
		return exec.Rel{}, err
	}
	return c.Rel(), nil
}

// rootJob builds the one job a scan root or a join root runs on:
// buildMorselJob, or joinJob's pipelined probe. It returns nil, with a nil
// error, for a root that materializes instead: an aggregate, or a join
// joinJob cannot pipeline.
func (e *Engine) rootJob(ctx context.Context, n plan.PNode, snap txn.VersionVector, coord simnet.SiteID) (*morselJob, error) {
	switch v := n.(type) {
	case *plan.PScan:
		return e.buildMorselJob(ctx, v, snap, coord)
	case *plan.PJoin:
		return e.joinJob(ctx, v, nil, snap, coord)
	}
	return nil, nil
}

// materialize evaluates what no root job serves — an aggregate, or a join
// joinJob cannot pipeline — at the coordinator, keeping its first limit
// rows (0 = all).
func (e *Engine) materialize(ctx context.Context, n plan.PNode, snap txn.VersionVector, coord simnet.SiteID, limit int) (exec.Rel, error) {
	var rel exec.Rel
	var err error
	switch v := n.(type) {
	case *plan.PAgg:
		rel, err = e.evalAgg(ctx, v, snap, coord)
	case *plan.PJoin:
		var c exec.ColRel
		c, err = e.materializeJoin(ctx, v, snap, coord, nil)
		rel = c.Rel()
	default:
		err = fmt.Errorf("cluster: cannot materialize plan node %T", n)
	}
	if limit > 0 && len(rel.Tuples) > limit {
		rel.Tuples = rel.Tuples[:limit]
	}
	return rel, err
}

// evalAgg executes an aggregation. Over a scan or a join, the aggregates
// accumulate inside the scan workers; over another aggregate, the child's
// result materializes and aggregates at the coordinator.
func (e *Engine) evalAgg(ctx context.Context, pa *plan.PAgg, snap txn.VersionVector, coord simnet.SiteID) (exec.Rel, error) {
	switch child := pa.Child.(type) {
	case *plan.PScan:
		return e.morselAgg(ctx, pa, child, snap, coord)
	case *plan.PJoin:
		return e.evalBatchJoinAgg(ctx, pa, child, snap, coord)
	}
	rel, err := e.materialize(ctx, pa.Child, snap, coord, 0)
	if err != nil {
		return exec.Rel{}, err
	}
	return e.aggregateAt(coord, pa.GroupBy, pa.Aggs, rel.Cols, func(agg *exec.Aggregator) (int, int) {
		for _, t := range rel.Tuples {
			agg.Observe(t)
		}
		return rel.NumRows(), rel.RowBytes()
	}), nil
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

// shipBytesTo moves a payload of bytes between sites (retrying dropped
// messages) and records the network observation. A persistent fault
// surfaces as the typed error so the query can re-plan around it.
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

// aggregateAt aggregates at the coordinator: fold feeds a fresh
// accumulator of specs and reports what it took in, rows and their average
// width, for the one aggregate observation the combine makes there.
func (e *Engine) aggregateAt(coord simnet.SiteID, groupBy []int, specs []exec.AggSpec, cols []string, fold func(*exec.Aggregator) (in, width int)) exec.Rel {
	start := time.Now()
	agg := exec.NewAggregator(groupBy, specs)
	in, width := fold(agg)
	out := agg.Rel(cols)
	e.siteOf(coord).Observe(cost.Observation{
		Op:       cost.OpAggregate,
		Variant:  cost.AggHash,
		Features: cost.AggFeatures(in, out.NumRows(), width),
		Latency:  time.Since(start),
	})
	return out
}

// ExecuteQueryStream runs an OLAP query and returns a cursor streaming
// result rows incrementally. A scan root, and a join root pipelined over
// one once its build sides are hashed, streams: rows arrive as bounded
// batches while the scan is still running, and closing the cursor early
// (or cancelling ctx, or reaching the query's Limit) closes the morsel
// feeds so workers stop promptly. Any other root materializes at the
// coordinator first and the cursor iterates the result. Retriable
// planning/setup failures are retried exactly as ExecuteQuery retries
// them; once streaming has begun, failures surface through the cursor's
// Err and are not retried.
func (e *Engine) ExecuteQueryStream(ctx context.Context, sess *Session, q *query.Query) (*RowCursor, error) {
	var cur *RowCursor
	err := e.withRetries(ctx, admission.PriorityOLAP, func() error {
		pn, err := e.planQuery(ctx, q)
		if err != nil {
			return err
		}
		cur, err = e.streamPlan(ctx, sess, pn, q.Limit)
		return err
	})
	return cur, err
}

// streamPlan runs a planned query as ExecuteQueryStream does; limit > 0
// ends the stream after that many rows. The session observes the snapshot
// before the first row; a streaming cursor holds the snapshot until EOF or
// Close.
func (e *Engine) streamPlan(ctx context.Context, sess *Session, pn plan.PNode, limit int) (*RowCursor, error) {
	qs, err := e.startQuery(sess, pn)
	if err != nil {
		return nil, err
	}
	sess.s.ObserveOf(qs.snap, qs.pids)

	start := e.clk.Now()
	onEOF := func(err error) {
		if err == nil {
			d := e.clk.Since(start)
			e.stats.Record(ClassOLAP, d)
			if e.Advisor != nil {
				e.Advisor.onQueryExecuted(pn)
			}
		}
	}
	// A root job's build sides, if any, are evaluated at the coordinator
	// before the first row streams; without one the root materializes.
	var j *morselJob
	var rel exec.Rel
	if rerr := e.siteOf(qs.coord).RunOLAP(func() {
		if j, err = e.rootJob(ctx, pn, qs.snap, qs.coord); err == nil && j == nil {
			rel, err = e.materialize(ctx, pn, qs.snap, qs.coord, limit)
		}
	}); rerr != nil {
		err = rerr
	}
	if err != nil || j == nil {
		e.snaps.release(qs.slot)
		if err != nil {
			return nil, err
		}
		return newStaticCursor(rel, onEOF), nil
	}
	return j.cursor(limit, func(err error) {
		e.snaps.release(qs.slot)
		onEOF(err)
	}), nil
}
