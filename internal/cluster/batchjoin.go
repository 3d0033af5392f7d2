// Batch-native join execution (§4.3), the one way every join runs. Each
// join's smaller input — by estimate — is the build side, and it is built
// where its probe runs. A build side stays where it was evaluated: a scan
// as one share per scanning site, anything else as one share at the
// coordinator — except that when every probing site holds a whole copy of
// a build scan (a replicated table), each reads its own copy and builds
// from it alone. The key bounds of one copy are pushed into the probe
// scan's predicate (zone maps prune morsels before scheduling); then every
// site holding probe morsels builds its own exec.JoinTable per stage of
// the left-deep chain: from its whole copy, or over the rows it holds
// plus, from every other site, the rows whose key falls in the zone-map
// range of its probe key column — sent straight from site to site, one
// message per ordered pair with rows to send, never through the
// coordinator. The scan workers probe each batch through their site's
// chain (exec.Prober) before handing it to the query's sink — per-site
// partial aggregates for an aggregation parent, one columnar share per
// site for a bare join gathered whole, row batches for one streamed to a
// cursor or cut by a LIMIT. What still materializes both sides at the
// coordinator (materializeJoin → exec.BatchHashJoin) is what the pipeline
// cannot serve: a build side over the spill budget, which grace-partitions
// through the spill device, and a probe side that is not a scan (an
// aggregate).
package cluster

import (
	"context"
	"errors"
	"slices"
	"sort"

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

// nodeLabels mirrors the output labels evalNode produces for a subtree, at
// the need positions (nil means all).
func nodeLabels(n plan.PNode, need []int) []string {
	if need == nil {
		out := make([]string, plan.OutputWidth(n))
		for i := range out {
			out[i] = nodeLabel(n, i)
		}
		return out
	}
	out := make([]string, len(need))
	for i, p := range need {
		out[i] = nodeLabel(n, p)
	}
	return out
}

// nodeLabel is the label of a subtree's output column i.
func nodeLabel(n plan.PNode, i int) string {
	switch v := n.(type) {
	case *plan.PScan:
		return colName(v.Cols[i])
	case *plan.PJoin:
		if w := plan.OutputWidth(v.Left); i >= w {
			return nodeLabel(v.Right, i-w)
		}
		return nodeLabel(v.Left, i)
	case *plan.PAgg:
		if i < len(v.GroupBy) {
			return nodeLabel(v.Child, v.GroupBy[i])
		}
		return v.Aggs[i-len(v.GroupBy)].Func.String()
	}
	return ""
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

// flattenJoin resolves a join subtree into ch and fills refs, as long as
// the subtree's output, with the source of each of its output columns.
// Every join builds on the side estimated smaller and probes with the
// other, so the probe side descends through joins to one leaf; build sides
// may be subtrees of any shape. When that leaf is not a scan, ch.scan stays
// nil and flattenJoin returns false. flip reverses the choice for the
// innermost join — the one probed by the scan itself — when its build side
// is a scan too.
func flattenJoin(n plan.PNode, ch *probeChain, flip bool, refs []exec.ColRef) bool {
	switch v := n.(type) {
	case *plan.PScan:
		ch.scan = v
		for i := range refs {
			refs[i] = exec.ColRef{Stage: -1, Col: i}
		}
		return true
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
		// The output is the left input's columns, then the right's.
		pw := plan.OutputWidth(probe)
		prefs, brefs := refs[:pw], refs[pw:]
		if buildLeft {
			brefs, prefs = refs[:len(refs)-pw], refs[len(refs)-pw:]
		}
		if !flattenJoin(probe, ch, flip, prefs) {
			return false
		}
		k := len(ch.builds)
		ch.builds = append(ch.builds, chainBuild{node: build, key: bKey, probe: prefs[pKey]})
		for i := range brefs {
			brefs[i] = exec.ColRef{Stage: k, Col: i}
		}
		return true
	}
	return false
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
// every build side where its rows lie (buildShares), pushes the build keys'
// bounds into the probe scan, schedules the scan's morsels, and gives each
// site holding probe morsels its own tables over the build rows its probe
// rows can meet (routeBuilds) — ready for whichever sink the caller runs.
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
// has produced more rows than the probe side's partitions hold, per copy
// read — proof that the other side is the smaller one — and the join is
// redone with the roles swapped, having shipped nothing for it.
func (e *Engine) joinJob(ctx context.Context, pj *plan.PJoin, need []int, snap txn.VersionVector, coord simnet.SiteID) (*morselJob, error) {
	j, err := e.pipeJoin(ctx, pj, need, snap, coord, false)
	if errors.Is(err, errRowCap) {
		j, err = e.pipeJoin(ctx, pj, need, snap, coord, true)
	}
	return j, err
}

// buildShare is the part of a build side one site holds.
type buildShare struct {
	site simnet.SiteID
	rel  exec.ColRel
}

// routedStage is one probe stage before routing: its build side's shares,
// the join key's position in them, and where the probe key comes from.
// whole is set when each share is a complete copy read at a probing site,
// which builds its table from it alone.
type routedStage struct {
	shares []buildShare
	key    int
	probe  exec.ColRef
	whole  bool
}

// shareAt is the site's share of the stage's build side; nil when it
// holds none.
func (st *routedStage) shareAt(site simnet.SiteID) *exec.ColRel {
	for i := range st.shares {
		if sh := &st.shares[i]; sh.site == site {
			return &sh.rel
		}
	}
	return nil
}

// pipeJoin is joinJob for one orientation of the innermost join: the
// planner's, with the build scan capped (errRowCap when it is exceeded),
// or, with flip set, the reverse, uncapped.
func (e *Engine) pipeJoin(ctx context.Context, pj *plan.PJoin, need []int, snap txn.VersionVector, coord simnet.SiteID, flip bool) (*morselJob, error) {
	var ch probeChain
	refs := make([]exec.ColRef, plan.OutputWidth(pj))
	if !flattenJoin(pj, &ch, flip, refs) {
		return nil, nil
	}
	labels := nodeLabels(pj, need)
	out := make([]exec.ColRef, len(labels))
	for i := range out {
		if need != nil {
			out[i] = refs[need[i]]
		} else {
			out[i] = refs[i]
		}
	}

	// Each input's column footprint: what the sink reads plus every key.
	// No list holds more than c positions, so all of them are carved from
	// one array.
	c := len(out) + len(ch.builds) + 1
	lists := make([]int, (len(ch.builds)+1)*c)
	scanNeed := lists[:0:c]
	buildNeed := make([][]int, len(ch.builds))
	for k := range buildNeed {
		buildNeed[k] = lists[(k+1)*c : (k+1)*c : (k+2)*c]
	}
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
	var siteBuf [8]simnet.SiteID
	probing := probeSites(siteBuf[:0], scan)

	spill := e.joinSpill()
	stages := make([]routedStage, 0, len(ch.builds))
	pred := scan.Pred
	for k, b := range ch.builds {
		rowCap := 0
		if _, isScan := b.node.(*plan.PScan); isScan && k == 0 && !flip {
			rowCap = scanRows(ch.scan)
		}
		shares, whole, err := e.buildShares(ctx, b.node, snap, coord, buildNeed[k], rowCap, probing)
		if err != nil {
			return nil, err
		}
		// The size and the key bounds of one copy of the build side: all
		// shares of a copy split among sites, or one of whole copies.
		one := shares
		if whole {
			one = shares[:min(1, len(shares))]
		}
		var bounds exec.RuntimeFilter
		key := posIndex(buildNeed[k], b.key)
		rows, bytes := 0, int64(0)
		for i := range one {
			rows += one[i].rel.NumRows()
			bytes += one[i].rel.Bytes()
			bounds.Widen(&one[i].rel, key)
		}
		if rows == 0 {
			// An inner join against zero rows is empty: no later build is
			// evaluated and no probe morsel is scheduled.
			stages = nil
			break
		}
		if rows > 1 && bytes > spill.Budget {
			return nil, nil
		}
		st := routedStage{shares: shares, key: key, probe: narrowed(b.probe), whole: whole}
		stages = append(stages, st)
		if st.probe.Stage < 0 {
			if bp := bounds.BoundsPred(scan.Cols[st.probe.Col]); bp != nil {
				pred = append(append(storage.Pred{}, pred...), bp...)
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
		if err := j.routeBuilds(stages, out); err != nil {
			j.cancel()
			return nil, err
		}
	}
	return j, nil
}

// buildShares evaluates a build side where its rows lie. A scan is read
// where pinCopies places it, each probing site reading its own copy when
// every one holds a whole copy (whole is then set), and each scanning
// site's rows stay there as that site's share — runSites' per-site
// columnar accumulators, never shipped. Given maxRows > 0, it fails with
// errRowCap once more rows than that have been scanned per copy read. Any
// other subtree is evaluated to the coordinator, its one share.
func (e *Engine) buildShares(ctx context.Context, n plan.PNode, snap txn.VersionVector, coord simnet.SiteID, need []int, maxRows int, probing []simnet.SiteID) (_ []buildShare, whole bool, _ error) {
	ps, isScan := n.(*plan.PScan)
	if !isScan {
		c, err := e.evalColInput(ctx, n, snap, coord, nil, -1, need)
		if err != nil {
			return nil, false, err
		}
		return []buildShare{{site: coord, rel: c}}, false, nil
	}
	scan, whole := e.pinCopies(projectScan(ps, need), probing)
	j, err := e.buildMorselJob(ctx, scan, snap, coord)
	if err != nil {
		return nil, false, err
	}
	defer j.cancel()
	if whole {
		maxRows *= len(probing) // every copy read adds to the sinks' one count
	}
	accs, err := runSites(j, simnet.KindJoin, false, func(site simnet.SiteID) *colAcc {
		return &colAcc{j: j, site: site, cols: exec.NewColRel(j.cols), maxRows: int64(maxRows)}
	})
	if err != nil {
		return nil, false, err
	}
	shares := make([]buildShare, len(accs))
	for i, a := range accs {
		shares[i] = buildShare{site: a.site, rel: a.all()}
		j.e.cntMorselRows.Add(int64(shares[i].rel.NumRows()))
	}
	return shares, whole, nil
}

// pinCopies reads a build scan from the probing sites' own copies when
// each of them is whole: up, and holding a copy of every piece of the scan
// in the planned copy's storage format. It then returns a clone of ps
// (plans are cached) that lists every segment once per probing site,
// pinned at that site's copies — read at the query's snapshot, as any
// replica scan is — and true. Otherwise it returns ps, whose rows are
// routed from the planned copies.
func (e *Engine) pinCopies(ps *plan.PScan, probing []simnet.SiteID) (*plan.PScan, bool) {
	npieces := 0
	for _, seg := range ps.Segments {
		npieces += len(seg.Pieces)
	}
	if npieces == 0 || len(probing) == 0 {
		return ps, false
	}
	for _, s := range probing {
		if e.siteOf(s).Down() {
			return ps, false
		}
		for _, seg := range ps.Segments {
			for _, piece := range seg.Pieces {
				if c, ok := piece.Meta.CopyAt(s); !ok || c.Layout.Format != piece.Copy.Layout.Format {
					return ps, false
				}
			}
		}
	}
	clone := *ps
	clone.Segments = make([]plan.RowSegment, 0, len(probing)*len(ps.Segments))
	pieces := make([]plan.ScanPart, 0, len(probing)*npieces)
	for _, s := range probing {
		for _, seg := range ps.Segments {
			from := len(pieces)
			for _, piece := range seg.Pieces {
				piece.Copy, _ = piece.Meta.CopyAt(s)
				pieces = append(pieces, piece)
			}
			clone.Segments = append(clone.Segments, plan.RowSegment{Lo: seg.Lo, Hi: seg.Hi, Pieces: pieces[from:len(pieces):len(pieces)]})
		}
	}
	return &clone, true
}

// probeSites appends to sites every site holding a piece of the probe
// scan: the sites its morsels can be scheduled at.
func probeSites(sites []simnet.SiteID, ps *plan.PScan) []simnet.SiteID {
	for _, seg := range ps.Segments {
		for _, piece := range seg.Pieces {
			if !slices.Contains(sites, piece.Copy.Site) {
				sites = append(sites, piece.Copy.Site)
			}
		}
	}
	return sites
}

// routeBuilds gives every site holding probe morsels a pipeline of its
// own. Its table for a stage holds its whole copy of the build side, if
// every probing site read one; otherwise the build rows the site has and,
// from every other site, only the rows whose key may equal one of its
// probe keys: a key inside the probe key column's range in the zone map of
// one of the partitions its morsels read — the zone maps the scheduler
// pruned those partitions with, so routing is exactly as safe as pruning.
// A stage whose probe key comes from an earlier build, or whose probe
// column has no range on some partition of the site, routes every row
// there. Rows go from the site holding them straight to the probing site:
// each ordered pair with rows to send is one message carrying every
// stage's rows for it, charged their bytes plus a 64-byte header. A site
// left with an empty table drops its morsels, and is sent nothing: an
// inner join with no build rows is empty. The sites route, ship and build
// concurrently.
func (j *morselJob) routeBuilds(stages []routedStage, out []exec.ColRef) error {
	j.pipes = make([]*exec.JoinPipe, len(j.e.Sites))
	probes := make([]exec.ProbeStage, len(stages)*len(j.units))
	build := func(siteID simnet.SiteID, units []morselUnit, probes []exec.ProbeStage) {
		p, err := j.siteTables(siteID, units, stages, probes, out)
		if err != nil {
			j.fail(err)
		}
		j.pipes[siteID] = p
	}
	n := 0
	for siteID, units := range j.units {
		mine := probes[n*len(stages) : (n+1)*len(stages)]
		if n++; n == len(j.units) { // the last site builds on this goroutine
			build(siteID, units, mine)
			break
		}
		j.routing.Add(1)
		go func() {
			defer j.routing.Done()
			build(siteID, units, mine)
		}()
	}
	j.routing.Wait()
	if j.err != nil {
		return j.err
	}
	for siteID := range j.units {
		if j.pipes[siteID] == nil {
			delete(j.units, siteID)
		}
	}
	return nil
}

// siteTables routes every stage's build rows to one probing site, ships
// them there, and builds the site's pipeline over probes; nil, with
// nothing shipped, when one of its tables would be empty. A whole stage is
// built from the site's own copy alone.
func (j *morselJob) siteTables(siteID simnet.SiteID, units []morselUnit, stages []routedStage, probes []exec.ProbeStage, out []exec.ColRef) (*exec.JoinPipe, error) {
	var sentBuf [8]int64
	sent := sentBuf[:0] // bytes routed from each site; -1: nothing
	for range j.e.Sites {
		sent = append(sent, -1)
	}
	var inBuf [4]exec.ColRel
	inputs := inBuf[:0] // per stage: the site's table input
	for range stages {
		inputs = append(inputs, exec.ColRel{})
	}
	var rangeBuf [8]exec.KeyRange
	var selBuf [256]int32
	for k, st := range stages {
		if st.whole {
			own := st.shareAt(siteID)
			if own == nil || own.NumRows() == 0 {
				return nil, nil
			}
			inputs[k] = *own
			continue
		}
		var ranges []exec.KeyRange
		all := st.probe.Stage >= 0
		if !all {
			ranges, all = keyRanges(rangeBuf[:0], units, st.probe.Col)
		}
		parts := 0
		for i := range st.shares {
			sh := &st.shares[i]
			part := &sh.rel
			if sh.site != siteID && !all && part.NumRows() > 0 {
				sel := exec.RouteRows(part, st.key, ranges, selBuf[:0])
				if len(sel) == 0 {
					continue
				}
				if len(sel) < part.NumRows() {
					routed := exec.NewColRel(part.Cols)
					routed.Gather(part, sel)
					part = &routed
				}
			} else if part.NumRows() == 0 {
				continue
			}
			if sh.site != siteID {
				sent[sh.site] = max(sent[sh.site], 0) + part.Bytes()
			}
			appendShare(&inputs[k], parts, part)
			parts++
		}
		if parts == 0 {
			return nil, nil
		}
	}
	for from, bytes := range sent {
		if bytes < 0 {
			continue
		}
		if err := j.e.shipBytesTo(simnet.KindJoin, simnet.SiteID(from), siteID, int(bytes+64)); err != nil {
			return nil, err
		}
		exec.RecordJoinBroadcast(bytes + 64)
	}
	for k, st := range stages {
		probes[k] = exec.ProbeStage{Table: exec.BuildJoinTable(&inputs[k], st.key), Key: st.probe}
	}
	return exec.NewJoinPipe(probes, out), nil
}

// appendShare adds a non-empty part to a site's table input, which has
// taken parts of them so far: the first is taken as it is, read-only, and
// a second copies both onto a relation of the input's own.
func appendShare(in *exec.ColRel, parts int, part *exec.ColRel) {
	switch parts {
	case 0:
		*in = *part
	case 1:
		first := *in
		*in = exec.NewColRel(first.Cols)
		in.AppendCols(&first)
		in.AppendCols(part)
	default:
		in.AppendCols(part)
	}
}

// keyRanges appends to ranges, and merges, the ranges of scan output
// column col over the partitions a site's units read, each from the zone
// map of the partition that serves the column (a stitched unit's piece
// holding it); all is set when one of them records no range for it.
func keyRanges(ranges []exec.KeyRange, units []morselUnit, col int) (_ []exec.KeyRange, all bool) {
	var last *partScan
	for _, u := range units {
		ps, pos := u.ps, col
		if u.st != nil {
			src := u.st.src[col]
			ps, pos = u.st.pieces[src.piece], src.pos
		}
		if ps == last {
			continue
		}
		last = ps
		lo, hi, ok := ps.p.ZoneMap().Range(ps.lcols[pos])
		if !ok {
			return nil, true
		}
		ranges = append(ranges, exec.KeyRange{Lo: lo, Hi: hi})
	}
	return exec.MergeRanges(ranges), false
}

// installPipe puts a materializing join's runtime filter in front of the
// job's sinks, as a table-less probe stage on scan column key that narrows
// every scan batch inside the workers, and ships the filter from the
// coordinator to every remote site that holds probe morsels — the
// coordinator's own workers read it in place — so the modelled network
// and fault injection see what the semi-join reduction costs.
func (j *morselJob) installPipe(rf *exec.RuntimeFilter, key int) error {
	out := make([]exec.ColRef, j.width)
	for i := range out {
		out[i] = exec.ColRef{Stage: -1, Col: i}
	}
	p := exec.NewJoinPipe([]exec.ProbeStage{{Filter: rf, Key: exec.ColRef{Stage: -1, Col: key}}}, out)
	j.pipes = make([]*exec.JoinPipe, len(j.e.Sites))
	bytes := rf.Bytes()
	for _, s := range j.e.Sites {
		if _, probes := j.units[s.ID]; !probes {
			continue
		}
		j.pipes[s.ID] = p
		if s.ID == j.coord {
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
	return j.gatherCols(simnet.KindJoin)
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
		if right, err = e.evalColInput(ctx, pj.Right, snap, coord, nil, -1, needR); err != nil {
			return exec.ColRel{}, err
		}
		rf := exec.BuildRuntimeFilter(&right, rKey)
		if left, err = e.evalColInput(ctx, pj.Left, snap, coord, rf, lKey, needL); err != nil {
			return exec.ColRel{}, err
		}
	} else {
		if left, err = e.evalColInput(ctx, pj.Left, snap, coord, nil, -1, needL); err != nil {
			return exec.ColRel{}, err
		}
		rf := exec.BuildRuntimeFilter(&left, lKey)
		if right, err = e.evalColInput(ctx, pj.Right, snap, coord, rf, rKey, needR); err != nil {
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
// is empty, so the scan is never scheduled.
func (e *Engine) evalColInput(ctx context.Context, n plan.PNode, snap txn.VersionVector, coord simnet.SiteID, rf *exec.RuntimeFilter, rfKey int, need []int) (exec.ColRel, error) {
	if rf != nil && rf.Empty() {
		return exec.NewColRel(nodeLabels(n, need)), nil
	}
	var c exec.ColRel
	switch v := n.(type) {
	case *plan.PScan:
		return e.morselGatherCols(ctx, projectScan(v, need), snap, coord, rf, rfKey)
	case *plan.PJoin:
		var err error
		if c, err = e.evalBatchJoin(ctx, v, snap, coord, need); err != nil {
			return exec.ColRel{}, err
		}
	default:
		rel, err := e.materialize(ctx, n, snap, coord, 0)
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
func (e *Engine) morselGatherCols(ctx context.Context, ps *plan.PScan, snap txn.VersionVector, coord simnet.SiteID, rf *exec.RuntimeFilter, rfKey int) (exec.ColRel, error) {
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
		if err := j.installPipe(rf, rfKey); err != nil {
			return exec.ColRel{}, err
		}
	}
	return j.gatherCols(simnet.KindJoin)
}

// gatherCols materializes the job's output as one ColRel at the
// coordinator, each site's share arriving as one message of kind k.
func (j *morselJob) gatherCols(k simnet.Kind) (exec.ColRel, error) {
	shares, err := runSites(j, k, true, func(simnet.SiteID) *colAcc {
		return &colAcc{j: j, cols: exec.NewColRel(j.cols)}
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
	res := all.all()
	j.e.cntMorselRows.Add(int64(res.NumRows()))
	return res, nil
}

// colAcc is the columnar sink: a worker appends its batches column-wise and
// sums each batch's byte estimate; a site keeps its other workers' rows as
// more, to be concatenated where the share is used. The job fails with
// errRowCap once its sinks have taken more than maxRows rows (0: no cap);
// site is where the rows lie.
type colAcc struct {
	j       *morselJob
	site    simnet.SiteID
	cols    exec.ColRel
	more    []exec.ColRel
	bytes   int
	maxRows int64
}

func (a *colAcc) fold(b *storage.Batch) {
	from := a.cols.NumRows()
	a.cols.AppendBatch(b)
	a.bytes += a.cols.BytesFrom(from)
	if a.maxRows > 0 && a.j.gathered.Add(int64(b.Len())) > a.maxRows {
		a.j.fail(errRowCap)
	}
}

func (a *colAcc) merge(w *colAcc) {
	a.more = append(append(a.more, w.cols), w.more...)
	a.bytes += w.bytes
}

func (a *colAcc) seal() int { return a.bytes }

// all concatenates the accumulated rows into one relation.
func (a *colAcc) all() exec.ColRel {
	res := a.cols
	for k := range a.more {
		res.AppendCols(&a.more[k])
	}
	return res
}

// evalBatchJoinAgg fuses an aggregation over a batch join. The
// aggregation's column footprint (group keys + aggregate inputs) becomes
// the join tree's projection, so payload columns nobody aggregates are
// never materialized. Pipelined, the join's output never exists at all:
// every scan worker folds its joined batches into its own accumulator,
// workers merge per site, and one share per site crosses the network to
// merge at the coordinator exactly as a scan-aggregate's shares do.
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
	specs := specsOver(pa.Aggs, need)
	if j != nil {
		defer j.cancel()
		return j.runAgg(groupBy, specs)
	}
	c, err := e.materializeJoin(ctx, pj, snap, coord, need)
	if err != nil {
		return exec.Rel{}, err
	}
	return e.aggregateAt(coord, groupBy, specs, c.Cols, func(agg *exec.Aggregator) (int, int) {
		agg.ObserveCols(&c)
		return c.NumRows(), c.RowBytes()
	}), nil
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
