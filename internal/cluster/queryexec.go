package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"proteus/internal/admission"
	"proteus/internal/cost"
	"proteus/internal/exec"
	"proteus/internal/faults"
	"proteus/internal/forecast"
	"proteus/internal/metadata"
	"proteus/internal/partition"
	"proteus/internal/plan"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/txn"
	"proteus/internal/types"
	"proteus/internal/vclock"
)

// ErrStalePlan reports that a physical plan referenced a partition copy
// that a concurrent layout change moved or removed; the request re-plans
// against the new layout epoch and retries.
var ErrStalePlan = errors.New("cluster: physical plan stale after layout change")

// ExecuteQuery runs an OLAP query tree, producing the final relation at
// the coordinating site (§4.3, Figure 7b). Retriable failures — a plan
// invalidated by a concurrent layout change, a crashed site awaiting
// failover, a dropped message or transient partition — are re-planned and
// retried with seeded full-jitter backoff until the deadline (the
// context's, if set, else the configured operation deadline), after which
// the typed faults.ErrTimeout surfaces. Cancelling ctx aborts the query,
// closing the morsel feeds of any in-flight parallel scan.
func (e *Engine) ExecuteQuery(ctx context.Context, sess *Session, q *query.Query) (exec.Rel, error) {
	var rel exec.Rel
	var err error
	// Admission happens once per client-visible operation, before the
	// retry loop: a shed is terminal (never internally retried) and an
	// admitted operation's retries ride on the already-granted token.
	if err = e.admit(ctx, admission.PriorityOLAP); err != nil {
		return rel, err
	}
	deadline := e.queryDeadline(ctx)
	delay := e.retryBase()
	for {
		rel, err = e.executeQueryOnce(ctx, sess, q)
		if err == nil || !e.retriable(err) {
			return rel, err
		}
		if e.clk.Now().After(deadline) {
			return rel, e.deadlineErr(err)
		}
		e.cntRetries.Inc()
		if serr := e.sleepRetry(ctx, e.Faults.Jitter(delay)); serr != nil {
			return rel, serr
		}
		if delay *= 2; delay > maxRetryDelay {
			delay = maxRetryDelay
		}
	}
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
	snap := e.snapshotFor(pids, sess)
	coord, err := e.pickCoordinator(pn)
	if err != nil {
		return exec.Rel{}, err
	}
	if _, err := e.Net.Send(simnet.ASASite, coord, 256); err != nil {
		return exec.Rel{}, err
	}
	e.recordQueryAccesses(pn)

	var result exec.Rel
	var execErr error
	start := e.clk.Now()
	if err := e.siteOf(coord).RunOLAP(func() {
		result, execErr = e.evalRoot(ctx, pn, snap, coord, q.Limit)
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

// evalRoot evaluates the plan root, applying the query's LIMIT. A
// morsel-eligible scan root, or a bare join pipelined over one, pushes the
// limit into the executor — morsel scheduling stops once enough rows
// exist; any other root materializes and truncates.
func (e *Engine) evalRoot(ctx context.Context, pn plan.PNode, snap txn.VersionVector, coord simnet.SiteID, limit int) (exec.Rel, error) {
	switch v := pn.(type) {
	case *plan.PScan:
		if e.morselEligible(v) {
			return e.morselGather(ctx, v, snap, coord, limit)
		}
	case *plan.PJoin:
		if e.batchJoinOK(v) {
			return e.evalBatchJoinRows(ctx, v, snap, coord, limit)
		}
	}
	rel, err := e.evalNode(ctx, pn, snap, coord)
	if err != nil {
		return rel, err
	}
	if limit > 0 && len(rel.Tuples) > limit {
		rel.Tuples = rel.Tuples[:limit]
	}
	return rel, nil
}

// scatter runs n indexed tasks concurrently with bounded parallelism,
// cancelling the remainder as soon as any task fails. It waits for every
// launched task to exit (they may write into caller-owned slots) and
// returns the first error. Tasks receive a context derived from ctx that
// is cancelled on the first failure.
func (e *Engine) scatter(ctx context.Context, n int, task func(ctx context.Context, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	limit := 2 * runtime.GOMAXPROCS(0)
	if n < limit {
		limit = n
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	var once sync.Once
	var firstErr error
	for i := 0; i < n; i++ {
		if sctx.Err() != nil {
			break // first error already cancelled; stop launching
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if sctx.Err() != nil {
				return
			}
			if err := task(sctx, i); err != nil {
				once.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
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

// evalNode evaluates a physical plan node, materializing its result at the
// coordinator. Scans over single-piece segments run on the morsel executor
// (morsel.go); vertically partitioned scans and joins keep the
// segment-granular path.
func (e *Engine) evalNode(ctx context.Context, n plan.PNode, snap txn.VersionVector, coord simnet.SiteID) (exec.Rel, error) {
	switch v := n.(type) {
	case *plan.PScan:
		if e.morselEligible(v) {
			return e.morselGather(ctx, v, snap, coord, 0)
		}
		return e.evalScan(ctx, v, snap, coord)
	case *plan.PJoin:
		if e.batchJoinOK(v) {
			return e.evalBatchJoinRows(ctx, v, snap, coord, 0)
		}
		return e.evalJoin(ctx, v, nil, snap, coord)
	case *plan.PAgg:
		return e.evalAgg(ctx, v, snap, coord)
	}
	return exec.Rel{}, fmt.Errorf("cluster: unknown plan node %T", n)
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

// scanPieceAt scans one piece (bounded to a row segment) at a given site.
func (e *Engine) scanPieceAt(piece plan.ScanPart, siteID simnet.SiteID, seg plan.RowSegment,
	pred storage.Pred, snap txn.VersionVector) (exec.Rel, []schema.RowID, error) {

	p, err := e.sitePartition(piece.Meta.ID, siteID, snap[piece.Meta.ID])
	if err != nil {
		return exec.Rel{}, nil, err
	}
	rel, ids, obs := exec.ScanRows(p, piece.Cols, pred, seg.Lo, seg.Hi, snap[piece.Meta.ID])
	e.siteOf(siteID).Observe(obs)
	return rel, ids, nil
}

// shipTo moves a relation between sites (retrying dropped messages) and
// records the network observation. A persistent fault surfaces as the
// typed error so the query can re-plan around it.
func (e *Engine) shipTo(from, to simnet.SiteID, rel exec.Rel) error {
	return e.shipBytesTo(from, to, rel.NumRows()*rel.RowBytes()+64)
}

// shipBytesTo is shipTo for callers that already know the payload size
// (columnar chunks from the batch-join scan path).
func (e *Engine) shipBytesTo(from, to simnet.SiteID, bytes int) error {
	if from == to {
		return nil
	}
	var d time.Duration
	if err := e.Faults.Retry(e.sendBackoff(), func() error {
		dd, err := e.Net.Send(from, to, bytes)
		d += dd
		return err
	}); err != nil {
		return err
	}
	e.siteOf(from).Observe(cost.Observation{
		Op:       cost.OpNetwork,
		Features: cost.NetworkFeatures(e.siteOf(from).CPU(), e.siteOf(to).CPU(), bytes, 0),
		Latency:  d,
	})
	return nil
}

// evalScan executes a PScan on the legacy segment-granular path (used for
// vertically partitioned scans the morsel executor does not handle),
// stitching vertical pieces and shipping results to the coordinator. Work
// on other sites runs on their OLAP pools concurrently; the first failure
// cancels the remaining segments.
func (e *Engine) evalScan(ctx context.Context, ps *plan.PScan, snap txn.VersionVector, coord simnet.SiteID) (exec.Rel, error) {
	results := make([]exec.Rel, len(ps.Segments))
	err := e.scatter(ctx, len(ps.Segments), func(sctx context.Context, i int) error {
		seg := ps.Segments[i]
		run := func() error {
			rel, err := e.evalSegment(sctx, ps, seg, snap, coord)
			if err != nil {
				return err
			}
			results[i] = rel
			return nil
		}
		// Single-piece remote segments execute on their owning site's
		// OLAP pool; everything else runs inline. A remote site that
		// crashed rejects the work; run the segment at the coordinator
		// instead — evalSegment redirects to a live copy.
		if len(seg.Pieces) == 1 && seg.Pieces[0].Copy.Site != coord {
			s := e.siteOf(seg.Pieces[0].Copy.Site)
			var inner error
			if err := s.RunOLAP(func() { inner = run() }); err != nil {
				return run()
			}
			return inner
		}
		return run()
	})
	if err != nil {
		return exec.Rel{}, err
	}
	out := exec.Rel{Cols: colNames(ps.Cols)}
	for _, r := range results {
		out.Tuples = append(out.Tuples, r.Tuples...)
	}
	return out, nil
}

func colNames(cols []schema.ColID) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = fmt.Sprintf("c%d", c)
	}
	return out
}

// evalSegment scans one row segment's pieces and stitches them by row id.
func (e *Engine) evalSegment(ctx context.Context, ps *plan.PScan, seg plan.RowSegment, snap txn.VersionVector, coord simnet.SiteID) (exec.Rel, error) {
	if err := ctx.Err(); err != nil {
		return exec.Rel{}, err
	}
	if len(seg.Pieces) == 1 {
		piece := seg.Pieces[0]
		rel, _, err := e.scanPieceAt(piece, piece.Copy.Site, seg, ps.Pred, snap)
		if err != nil {
			return exec.Rel{}, err
		}
		// Reorder piece columns into the scan's output order.
		rel = reorderCols(rel, piece.Cols, ps.Cols)
		if err := e.shipTo(piece.Copy.Site, coord, rel); err != nil {
			return exec.Rel{}, err
		}
		return rel, nil
	}

	// Multi-piece: scan each piece, intersect by row id (each piece's
	// pushed-down predicate share filters independently), then stitch.
	type pieceData struct {
		cols []schema.ColID
		vals map[schema.RowID][]types.Value
		ids  []schema.RowID
	}
	pieces := make([]pieceData, len(seg.Pieces))
	for i, piece := range seg.Pieces {
		if err := ctx.Err(); err != nil {
			return exec.Rel{}, err
		}
		rel, ids, err := e.scanPieceAt(piece, piece.Copy.Site, seg, ps.Pred, snap)
		if err != nil {
			return exec.Rel{}, err
		}
		if err := e.shipTo(piece.Copy.Site, coord, rel); err != nil {
			return exec.Rel{}, err
		}
		pd := pieceData{cols: piece.Cols, vals: make(map[schema.RowID][]types.Value, len(ids)), ids: ids}
		for j, id := range ids {
			pd.vals[id] = rel.Tuples[j]
		}
		pieces[i] = pd
	}
	// Intersect ids across pieces, preserving the first piece's order.
	out := exec.Rel{Cols: colNames(ps.Cols)}
	colSource := map[schema.ColID][2]int{} // global col -> (piece, offset)
	for pi, pd := range pieces {
		for off, c := range pd.cols {
			if _, ok := colSource[c]; !ok {
				colSource[c] = [2]int{pi, off}
			}
		}
	}
	for _, id := range pieces[0].ids {
		ok := true
		for pi := 1; pi < len(pieces); pi++ {
			if _, present := pieces[pi].vals[id]; !present {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		tuple := make([]types.Value, len(ps.Cols))
		for i, c := range ps.Cols {
			src, found := colSource[c]
			if !found {
				continue
			}
			tuple[i] = pieces[src[0]].vals[id][src[1]]
		}
		out.Tuples = append(out.Tuples, tuple)
	}
	return out, nil
}

// reorderCols maps a piece's output (ordered by pieceCols) onto outCols.
func reorderCols(rel exec.Rel, pieceCols, outCols []schema.ColID) exec.Rel {
	if len(pieceCols) == len(outCols) {
		same := true
		for i := range pieceCols {
			if pieceCols[i] != outCols[i] {
				same = false
				break
			}
		}
		if same {
			rel.Cols = colNames(outCols)
			return rel
		}
	}
	idx := map[schema.ColID]int{}
	for i, c := range pieceCols {
		idx[c] = i
	}
	out := exec.Rel{Cols: colNames(outCols), Tuples: make([][]types.Value, len(rel.Tuples))}
	for ti, t := range rel.Tuples {
		row := make([]types.Value, len(outCols))
		for i, c := range outCols {
			if j, ok := idx[c]; ok {
				row[i] = t[j]
			}
		}
		out.Tuples[ti] = row
	}
	return out
}

// joinRels joins two materialized relations with the chosen algorithm.
func (e *Engine) joinRels(l, r exec.Rel, lKey, rKey int, alg cost.Variant, at simnet.SiteID,
	lSorted, rSorted bool) exec.Rel {

	var out exec.Rel
	var obs cost.Observation
	switch alg {
	case cost.JoinMerge:
		if !lSorted {
			var so cost.Observation
			l, so = exec.Sort(l, []int{lKey})
			e.siteOf(at).Observe(so)
		}
		if !rSorted {
			var so cost.Observation
			r, so = exec.Sort(r, []int{rKey})
			e.siteOf(at).Observe(so)
		}
		out, obs = exec.MergeJoin(l, r, []int{lKey}, []int{rKey})
	case cost.JoinNested:
		out, obs = exec.NestedLoopJoin(l, r, func(lt, rt []types.Value) bool {
			return types.Equal(lt[lKey], rt[rKey])
		})
	default:
		out, obs = exec.HashJoin(l, r, []int{lKey}, []int{rKey})
	}
	e.siteOf(at).Observe(obs)
	return out
}

// evalJoin executes a join; partialAgg, when non-nil, is applied to each
// site-local join result before shipping (aggregation pushdown under a
// two-phase PAgg).
func (e *Engine) evalJoin(ctx context.Context, pj *plan.PJoin, partialAgg *plan.PAgg, snap txn.VersionVector, coord simnet.SiteID) (exec.Rel, error) {
	if pj.Strategy == plan.JoinColocated {
		return e.evalColocatedJoin(ctx, pj, partialAgg, snap, coord)
	}
	left, err := e.evalNode(ctx, pj.Left, snap, coord)
	if err != nil {
		return exec.Rel{}, err
	}
	right, err := e.evalNode(ctx, pj.Right, snap, coord)
	if err != nil {
		return exec.Rel{}, err
	}
	lSorted := sortedAt(pj.Left) == pj.LeftKey
	rSorted := sortedAt(pj.Right) == pj.RightKey
	out := e.joinRels(left, right, pj.LeftKey, pj.RightKey, pj.Alg, coord, lSorted, rSorted)
	if partialAgg != nil {
		agg, obs := exec.HashAggregate(out, partialAgg.GroupBy, partialAgg.PartialAggs)
		e.siteOf(coord).Observe(obs)
		return agg, nil
	}
	return out, nil
}

func sortedAt(n plan.PNode) int {
	if s, ok := n.(*plan.PScan); ok {
		return s.SortedBy
	}
	return -1
}

// evalColocatedJoin joins left pieces against local right copies at each
// storage site, shipping only (optionally partially aggregated) results —
// Figure 7b's distributed execution. The first site failure cancels the
// remaining sites' work.
func (e *Engine) evalColocatedJoin(ctx context.Context, pj *plan.PJoin, partialAgg *plan.PAgg, snap txn.VersionVector, coord simnet.SiteID) (exec.Rel, error) {
	ls := pj.Left.(*plan.PScan)
	rs := pj.Right.(*plan.PScan)

	// Group left segments by executing site.
	bySite := map[simnet.SiteID][]plan.RowSegment{}
	var siteIDs []simnet.SiteID
	for _, seg := range ls.Segments {
		// A colocated segment has all its pieces on one site by planner
		// construction; use the first piece's site.
		sid := seg.Pieces[0].Copy.Site
		if _, ok := bySite[sid]; !ok {
			siteIDs = append(siteIDs, sid)
		}
		bySite[sid] = append(bySite[sid], seg)
	}

	outs := make([]exec.Rel, len(siteIDs))
	err := e.scatter(ctx, len(siteIDs), func(sctx context.Context, i int) error {
		siteID := siteIDs[i]
		run := func() error {
			rel, err := e.siteLocalJoin(sctx, ls, rs, bySite[siteID], pj, partialAgg, snap, siteID)
			if err != nil {
				return err
			}
			outs[i] = rel
			return nil
		}
		if siteID != coord {
			// A crashed site rejects the work; evaluate its share at
			// the coordinator against live copies instead.
			var inner error
			if err := e.siteOf(siteID).RunOLAP(func() { inner = run() }); err != nil {
				return run()
			}
			return inner
		}
		return run()
	})
	if err != nil {
		return exec.Rel{}, err
	}

	var final exec.Rel
	for i, rel := range outs {
		if err := e.shipTo(siteIDs[i], coord, rel); err != nil {
			return exec.Rel{}, err
		}
		final = exec.Concat(final, rel)
	}
	return final, nil
}

// siteLocalJoin evaluates one site's share of a colocated join.
func (e *Engine) siteLocalJoin(ctx context.Context, ls, rs *plan.PScan, segs []plan.RowSegment, pj *plan.PJoin,
	partialAgg *plan.PAgg, snap txn.VersionVector, siteID simnet.SiteID) (exec.Rel, error) {

	// Left input: this site's segments.
	left := exec.Rel{Cols: colNames(ls.Cols)}
	for _, seg := range segs {
		rel, err := e.evalSegmentAt(ctx, ls, seg, snap, siteID)
		if err != nil {
			return exec.Rel{}, err
		}
		left.Tuples = append(left.Tuples, rel.Tuples...)
	}
	// Right input: local copies of every right partition.
	right := exec.Rel{Cols: colNames(rs.Cols)}
	for _, seg := range rs.Segments {
		rel, err := e.evalSegmentAt(ctx, rs, seg, snap, siteID)
		if err != nil {
			return exec.Rel{}, err
		}
		right.Tuples = append(right.Tuples, rel.Tuples...)
	}
	out := e.joinRels(left, right, pj.LeftKey, pj.RightKey, pj.Alg, siteID, false, false)
	if partialAgg != nil {
		agg, obs := exec.HashAggregate(out, partialAgg.GroupBy, partialAgg.PartialAggs)
		e.siteOf(siteID).Observe(obs)
		return agg, nil
	}
	return out, nil
}

// evalSegmentAt is evalSegment with every piece read from the copy at a
// specific site (falling back to the planned copy when absent).
func (e *Engine) evalSegmentAt(ctx context.Context, ps *plan.PScan, seg plan.RowSegment, snap txn.VersionVector, siteID simnet.SiteID) (exec.Rel, error) {
	local := seg
	local.Pieces = make([]plan.ScanPart, len(seg.Pieces))
	for i, piece := range seg.Pieces {
		if piece.Meta.HasCopyAt(siteID) {
			piece.Copy = localCopy(piece, siteID)
		}
		local.Pieces[i] = piece
	}
	// Stitch at this site (pieces' sites now local where copies exist).
	return e.evalSegment(ctx, ps, local, snap, siteID)
}

func localCopy(piece plan.ScanPart, siteID simnet.SiteID) metadata.Replica {
	for _, c := range piece.Meta.AllCopies() {
		if c.Site == siteID {
			return c
		}
	}
	return piece.Copy
}

// evalAgg executes aggregation. An aggregation directly over a
// morsel-eligible scan fuses partial aggregation into the scan workers;
// otherwise the legacy two-phase (distributed child) or single-phase path
// runs.
func (e *Engine) evalAgg(ctx context.Context, pa *plan.PAgg, snap txn.VersionVector, coord simnet.SiteID) (exec.Rel, error) {
	if ps, ok := pa.Child.(*plan.PScan); ok && e.morselEligible(ps) {
		return e.morselAgg(ctx, pa, ps, snap, coord)
	}
	if pj, ok := pa.Child.(*plan.PJoin); ok && e.batchJoinOK(pj) {
		return e.evalBatchJoinAgg(ctx, pa, pj, snap, coord)
	}
	if pa.TwoPhase {
		switch child := pa.Child.(type) {
		case *plan.PJoin:
			partials, err := e.evalJoin(ctx, child, pa, snap, coord)
			if err != nil {
				return exec.Rel{}, err
			}
			return e.finalizeAgg(pa, partials, coord), nil
		case *plan.PScan:
			partials, err := e.evalScanWithPartialAgg(ctx, child, pa, snap, coord)
			if err != nil {
				return exec.Rel{}, err
			}
			return e.finalizeAgg(pa, partials, coord), nil
		}
	}
	rel, err := e.evalNode(ctx, pa.Child, snap, coord)
	if err != nil {
		return exec.Rel{}, err
	}
	var out exec.Rel
	var obs cost.Observation
	if s, ok := pa.Child.(*plan.PScan); ok && len(pa.GroupBy) == 1 && s.SortedBy == pa.GroupBy[0] {
		out, obs = exec.SortedAggregate(rel, pa.GroupBy, pa.Aggs)
	} else {
		out, obs = exec.HashAggregate(rel, pa.GroupBy, pa.Aggs)
	}
	e.siteOf(coord).Observe(obs)
	return out, nil
}

// evalScanWithPartialAgg pushes partial aggregation to each scanning site
// (legacy path for vertically partitioned scans). The first site failure
// cancels the rest.
func (e *Engine) evalScanWithPartialAgg(ctx context.Context, ps *plan.PScan, pa *plan.PAgg, snap txn.VersionVector, coord simnet.SiteID) (exec.Rel, error) {
	bySite := map[simnet.SiteID][]plan.RowSegment{}
	var siteIDs []simnet.SiteID
	for _, seg := range ps.Segments {
		sid := seg.Pieces[0].Copy.Site
		if _, ok := bySite[sid]; !ok {
			siteIDs = append(siteIDs, sid)
		}
		bySite[sid] = append(bySite[sid], seg)
	}
	outs := make([]exec.Rel, len(siteIDs))
	err := e.scatter(ctx, len(siteIDs), func(sctx context.Context, i int) error {
		siteID := siteIDs[i]
		run := func() error {
			local := exec.Rel{Cols: colNames(ps.Cols)}
			for _, seg := range bySite[siteID] {
				rel, err := e.evalSegmentAt(sctx, ps, seg, snap, siteID)
				if err != nil {
					return err
				}
				local.Tuples = append(local.Tuples, rel.Tuples...)
			}
			out, obs := exec.HashAggregate(local, pa.GroupBy, pa.PartialAggs)
			e.siteOf(siteID).Observe(obs)
			outs[i] = out
			return nil
		}
		if siteID != coord {
			// A crashed site rejects the work; evaluate its share at
			// the coordinator against live copies instead.
			var inner error
			if err := e.siteOf(siteID).RunOLAP(func() { inner = run() }); err != nil {
				return run()
			}
			return inner
		}
		return run()
	})
	if err != nil {
		return exec.Rel{}, err
	}
	var partials exec.Rel
	for i, rel := range outs {
		if err := e.shipTo(siteIDs[i], coord, rel); err != nil {
			return exec.Rel{}, err
		}
		partials = exec.Concat(partials, rel)
	}
	return partials, nil
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
	for _, t := range combined.Tuples {
		row := make([]types.Value, 0, ng+len(pa.Aggs))
		row = append(row, t[:ng]...)
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
		out.Tuples = append(out.Tuples, row)
	}
	return out
}

// ExecuteQueryStream runs an OLAP query and returns a cursor streaming
// result rows incrementally. A morsel-eligible scan root — and a bare join
// pipelined over one, once its build sides are hashed — streams natively:
// rows arrive as bounded batches while the scan is still running, and
// closing the cursor early (or cancelling ctx, or reaching the query's
// Limit) closes the morsel feeds so workers stop promptly. Other plan
// shapes materialize at the coordinator first and the cursor iterates the
// result. Retriable planning/setup failures are retried exactly as
// ExecuteQuery retries them; once streaming has begun, failures surface
// through the cursor's Err and are not retried.
func (e *Engine) ExecuteQueryStream(ctx context.Context, sess *Session, q *query.Query) (*RowCursor, error) {
	if err := e.admit(ctx, admission.PriorityOLAP); err != nil {
		return nil, err
	}
	deadline := e.queryDeadline(ctx)
	delay := e.retryBase()
	for {
		cur, err := e.streamOnce(ctx, sess, q)
		if err == nil || !e.retriable(err) {
			return cur, err
		}
		if e.clk.Now().After(deadline) {
			return nil, e.deadlineErr(err)
		}
		e.cntRetries.Inc()
		if serr := e.sleepRetry(ctx, e.Faults.Jitter(delay)); serr != nil {
			return nil, serr
		}
		if delay *= 2; delay > maxRetryDelay {
			delay = maxRetryDelay
		}
	}
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

	pids := collectPIDs(pn)
	snap := e.snapshotFor(pids, sess)
	coord, err := e.pickCoordinator(pn)
	if err != nil {
		return nil, err
	}
	if _, err := e.Net.Send(simnet.ASASite, coord, 256); err != nil {
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
		if e.morselEligible(v) {
			j, err = e.buildMorselJob(ctx, v, snap, coord)
		}
	case *plan.PJoin:
		if e.batchJoinOK(v) {
			// The build sides are evaluated at the coordinator before the
			// first row streams; a nil job falls through to materializing.
			if rerr := e.siteOf(coord).RunOLAP(func() {
				j, err = e.joinJob(ctx, v, nil, snap, coord)
			}); rerr != nil {
				return nil, rerr
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if j != nil {
		out := make(chan exec.Rel, 2*len(e.Sites)+2)
		j.runRows(out)
		return newMorselCursor(j, out, q.Limit, onEOF), nil
	}

	// Non-streaming plan shape: materialize, then iterate.
	var result exec.Rel
	var execErr error
	if err := e.siteOf(coord).RunOLAP(func() {
		result, execErr = e.evalRoot(ctx, pn, snap, coord, q.Limit)
	}); err != nil {
		return nil, err
	}
	if execErr != nil {
		return nil, execErr
	}
	return newStaticCursor(result, onEOF), nil
}
