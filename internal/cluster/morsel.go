// Morsel-driven parallel scan execution (the NUMA-aware morsel scheduling
// idea of Leis et al., adapted to Proteus' per-partition layouts): each
// site splits its hosted partitions into fixed-size row-range morsels, the
// site's scan workers — as many at once as it has scan slots, sized to the
// machine's parallelism and shared by every concurrent query — claim
// morsels off a per-query cursor, evaluates
// predicate + projection + partial aggregation over them on the
// layout-native path. One loop, runSites, runs every scan: each worker
// folds its batches into a sink of its own, and each site's share —
// partial aggregates, columnar join inputs and outputs — leaves it as one
// message once its workers are done. The streaming sink, behind cursors
// and LIMIT, also ships full row batches as they fill, over a channel with
// backpressure, so its site's share is only what was left over. LIMIT and
// context cancellation terminate early by ending the morsel feed. Zone
// maps prune whole partitions before a single morsel is scheduled. A
// vertically split segment that no single piece covers is scanned as
// stitched units: every needed piece reads the same row range and the rows
// present in all of them are assembled before the sink sees them, so every
// scan — whatever the layout — runs here.
package cluster

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/cost"
	"proteus/internal/exec"
	"proteus/internal/partition"
	"proteus/internal/plan"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/txn"
	"proteus/internal/types"
	"proteus/internal/vclock"
)

func (e *Engine) morselRows() int {
	if e.cfg.MorselRows > 0 {
		return e.cfg.MorselRows
	}
	return exec.DefaultMorselRows
}

func (e *Engine) scanBatchRows() int {
	if e.cfg.ScanBatchRows > 0 {
		return e.cfg.ScanBatchRows
	}
	return exec.DefaultBatchRows
}

// morselPiece selects the vertical piece a segment can be scanned from on
// its own: the segment's lone piece, or the first piece whose partition
// bounds contain every projected column and every predicate column (the
// vertical pieces of one segment tile the same row range, so one covering
// piece yields exactly the rows the stitched scan would).
func morselPiece(ps *plan.PScan, seg plan.RowSegment) (plan.ScanPart, bool) {
	if len(seg.Pieces) == 1 {
		return seg.Pieces[0], true
	}
	for _, piece := range seg.Pieces {
		if pieceCovers(piece, ps) {
			return piece, true
		}
	}
	return plan.ScanPart{}, false
}

// pieceCovers reports whether the piece's partition holds every column the
// scan projects or filters on.
func pieceCovers(piece plan.ScanPart, ps *plan.PScan) bool {
	for _, c := range ps.Cols {
		if !piece.Meta.Bounds.ContainsCol(c) {
			return false
		}
	}
	for _, cond := range ps.Pred {
		if !piece.Meta.Bounds.ContainsCol(cond.Col) {
			return false
		}
	}
	return true
}

// stitchPieces lists the pieces a segment with no covering piece must read
// — every piece holding a projected or a filtered column — and, per piece,
// the output positions it serves: each projected column comes from the
// first piece holding it.
func stitchPieces(ps *plan.PScan, seg plan.RowSegment) ([]plan.ScanPart, [][]int) {
	var pieces []plan.ScanPart
	var outs [][]int
	served := make([]bool, len(ps.Cols))
	for _, piece := range seg.Pieces {
		b := piece.Meta.Bounds
		mine := []int{}
		for i, c := range ps.Cols {
			if !served[i] && b.ContainsCol(c) {
				served[i] = true
				mine = append(mine, i)
			}
		}
		filters := false
		for _, cond := range ps.Pred {
			filters = filters || b.ContainsCol(cond.Col)
		}
		if len(mine) > 0 || filters {
			pieces = append(pieces, piece)
			outs = append(outs, mine)
		}
	}
	return pieces, outs
}

// partScan is the per-partition state shared by that partition's morsels:
// the captured store (stable under concurrent layout swaps — newer versions
// are invisible at the read snapshot), the pre-translated local predicate
// and projection, and atomics aggregating scan work for one cost
// observation per partition per query.
type partScan struct {
	p       *partition.Partition
	st      storage.Store
	siteID  simnet.SiteID
	lcols   []schema.ColID
	lp      storage.Pred // the local predicate less what the zone map proves
	variant cost.Variant // of the whole local predicate, as the planner prices it
	snap    uint64
	clk     vclock.Clock

	rows  atomic.Int64
	nanos atomic.Int64
}

// morselUnit is one scheduled scan unit: a row-id range of one partition,
// or, with st set, of a stitched segment whose driving piece is ps.
type morselUnit struct {
	ps     *partScan
	lo, hi schema.RowID
	st     *stitch
}

// stitch is what the units of one stitched segment share: the scans of the
// pieces to read, the driving piece first, and where each output column
// comes from.
type stitch struct {
	pieces []*partScan
	src    []stitchCol // per output position
}

// stitchCol locates an output column: a piece and a position in that
// piece's projection.
type stitchCol struct{ piece, pos int }

// newStitch orders a stitched segment's scans with the driving piece d
// first and maps every output position onto them; outs[k] lists the output
// positions scans[k] projects.
func newStitch(scans []*partScan, outs [][]int, d, width int) *stitch {
	st := &stitch{src: make([]stitchCol, width)}
	add := func(k int) {
		for i, pos := range outs[k] {
			st.src[pos] = stitchCol{piece: len(st.pieces), pos: i}
		}
		st.pieces = append(st.pieces, scans[k])
	}
	add(d)
	for k := range scans {
		if k != d {
			add(k)
		}
	}
	return st
}

// morselJob is one built parallel scan, ready to run through runSites into
// per-site partial aggregates (runAgg), one columnar relation (gatherCols)
// or a stream of boxed row batches (cursor). With join pipelines installed
// (joinJob: one per probing site, over that site's own tables) every scan
// batch passes through its site's probe stages inside the worker first, so
// the sinks see joined batches and cols labels the pipelines' output.
type morselJob struct {
	e      *Engine
	ctx    context.Context
	cancel context.CancelFunc
	coord  simnet.SiteID
	cols   []string // output labels
	width  int      // scan output columns (before any join pipeline)
	units  map[simnet.SiteID][]morselUnit
	parts  []*partScan

	pipes     []*exec.JoinPipe // by site id; nil for a plain scan
	routing   sync.WaitGroup   // routeBuilds' per-site builders
	joinMu    sync.Mutex
	joinStats map[simnet.SiteID][]exec.StageStats
	gathered  atomic.Int64 // rows the column sinks took, against their cap

	errOnce sync.Once
	err     error
}

// newProber returns a worker's prober for its site's pipeline, sized for
// scan batches of up to batchRows rows; nil — which passes batches
// through — when the job is a plain scan.
func (j *morselJob) newProber(siteID simnet.SiteID, batchRows int) *exec.Prober {
	if j.pipes == nil {
		return nil
	}
	return j.pipes[siteID].NewProber(batchRows)
}

// shipKind is the message kind of the job's result batches: joined rows
// when a probe pipeline runs in the workers, scanned rows otherwise.
func (j *morselJob) shipKind() simnet.Kind {
	if len(j.pipes) > 0 {
		return simnet.KindJoin
	}
	return simnet.KindScan
}

// closeProber folds a finished worker's probe counters into its site's.
func (j *morselJob) closeProber(siteID simnet.SiteID, pr *exec.Prober) {
	if pr == nil {
		return
	}
	stats := pr.Close()
	j.joinMu.Lock()
	defer j.joinMu.Unlock()
	if j.joinStats == nil {
		j.joinStats = make(map[simnet.SiteID][]exec.StageStats)
	}
	acc := j.joinStats[siteID]
	if acc == nil {
		acc = make([]exec.StageStats, len(stats))
		j.joinStats[siteID] = acc
	}
	for k := range stats {
		acc[k].Add(stats[k])
	}
}

func (j *morselJob) fail(err error) {
	j.errOnce.Do(func() {
		j.err = err
		j.cancel()
	})
}

// buildMorselJob resolves every segment's partition copies, prunes whole
// segments through their zone maps, and splits the survivors into morsels
// grouped by hosting site. A segment with a covering piece is scanned from
// that piece alone; one without becomes stitched units cut along the
// morsels of its driving piece — the piece with the fewest (a store that
// cannot address row ranges yields one, so no other piece rescans it per
// unit). The returned job owns a ctx derived from the caller's; cancelling
// it ends the morsel feeds.
func (e *Engine) buildMorselJob(ctx context.Context, ps *plan.PScan, snap txn.VersionVector, coord simnet.SiteID) (*morselJob, error) {
	jctx, cancel := context.WithCancel(ctx)
	j := &morselJob{
		e:      e,
		ctx:    jctx,
		cancel: cancel,
		coord:  coord,
		cols:   colNames(ps.Cols),
		width:  len(ps.Cols),
		units:  make(map[simnet.SiteID][]morselUnit),
	}
	target := e.morselRows()
	scheduled := 0
	for _, seg := range ps.Segments {
		piece, covered := morselPiece(ps, seg)
		pieces, outs := []plan.ScanPart{piece}, [][]int{nil}
		if !covered {
			pieces, outs = stitchPieces(ps, seg)
		}
		var buf [4]*partScan // the segment's piece scans, kept off the heap
		scans := buf[:0]
		var morsels []partition.Morsel
		d, pruned := 0, false
		for k, piece := range pieces {
			p, err := e.sitePartition(piece.Meta.ID, piece.Copy.Site, snap[piece.Meta.ID])
			if err != nil {
				cancel()
				return nil, err
			}
			// Any piece's zone map ruling out its share of the predicate
			// rules out the whole segment. A conjunct the map proves for
			// every row is not filtered for: the map is read before scanOf
			// captures the store, and writes widen it before they reach a
			// store, so it covers every value the captured store returns.
			lp, _ := exec.LocalPred(p.Bounds, ps.Pred)
			if zm := p.ZoneMap(); zm.CanSkip(lp) {
				pruned = true
			} else {
				variant := exec.ScanVariant(p.Layout(), lp)
				scans = append(scans, j.scanOf(p, piece.Copy.Site, ps, outs[k], zm.DropImplied(lp), variant, snap[piece.Meta.ID]))
			}
			if ms := clipMorsels(p.Morsels(target), seg); k == 0 || len(ms) < len(morsels) {
				d, morsels = k, ms
			}
		}
		if len(morsels) == 0 {
			continue
		}
		if pruned {
			// Pruned before scheduling: no worker ever sees these units.
			e.cntMorselsPruned.Add(int64(len(morsels)))
			continue
		}
		var st *stitch
		if len(scans) > 1 {
			st = newStitch(scans, outs, d, len(ps.Cols))
			e.cntMorselsStitched.Add(int64(len(morsels)))
		}
		lead := scans[d]
		for _, m := range morsels {
			j.units[lead.siteID] = append(j.units[lead.siteID], morselUnit{ps: lead, lo: m.Lo, hi: m.Hi, st: st})
			scheduled++
		}
	}
	e.recMorselsPerQuery.Record(time.Duration(scheduled)) // count, not ns
	return j, nil
}

// clipMorsels clips a partition's morsels to a segment's row range
// (segments tile the table), in place.
func clipMorsels(morsels []partition.Morsel, seg plan.RowSegment) []partition.Morsel {
	clipped := morsels[:0]
	for _, m := range morsels {
		if m.Lo < seg.Lo {
			m.Lo = seg.Lo
		}
		if m.Hi > seg.Hi {
			m.Hi = seg.Hi
		}
		if m.Lo < m.Hi {
			clipped = append(clipped, m)
		}
	}
	return clipped
}

// scanOf returns the job's scan state for partition p, creating it on
// first use: the captured store (stable under concurrent layout swaps —
// newer versions are invisible at the read snapshot), the local predicate
// lp, the cost-model variant of the whole local predicate, and the local
// projection of the output positions outs (nil: all).
func (j *morselJob) scanOf(p *partition.Partition, siteID simnet.SiteID, ps *plan.PScan, outs []int, lp storage.Pred, variant cost.Variant, snap uint64) *partScan {
	for _, sc := range j.parts {
		if sc.p == p {
			return sc
		}
	}
	lcols := make([]schema.ColID, 0, len(ps.Cols))
	for i, c := range ps.Cols {
		if outs == nil || slices.Contains(outs, i) {
			lcols = append(lcols, p.Bounds.LocalCol(c))
		}
	}
	sc := &partScan{p: p, st: p.StoreSnapshot(), siteID: siteID, lcols: lcols, lp: lp, variant: variant, snap: snap, clk: j.e.clk}
	j.parts = append(j.parts, sc)
	return sc
}

// scanUnit runs one unit through the columnar batch path, streaming pooled
// batches into fn and charging the work to the unit's partition. Batches
// are only valid inside fn.
func (j *morselJob) scanUnit(u morselUnit, maxRows int, fn func(*storage.Batch) bool) {
	if u.st != nil {
		j.scanStitched(u, maxRows, fn)
		return
	}
	start := u.ps.clk.Now()
	u.ps.st.ScanBatches(u.ps.lcols, u.ps.lp, u.lo, u.hi, u.ps.snap, maxRows, fn)
	u.ps.nanos.Add(int64(u.ps.clk.Since(start)))
}

// scanStitched runs a stitched unit. Every piece scans [lo, hi) with its
// share of the predicate, the driving piece first; a row survives only if
// every piece returned it, so every piece's conditions hold. The survivors
// reach fn as pooled batches in the driving piece's order. What a piece
// read on another site is charged as shipped to the unit's site, and each
// piece's scan to its own partition; the driving piece's observed rows are
// the stitched rows its sink counts.
func (j *morselJob) scanStitched(u morselUnit, maxRows int, fn func(*storage.Batch) bool) {
	st := u.st
	pos := make(map[schema.RowID]int)
	var ids []schema.RowID
	var hits []int // per driving-piece row: the other pieces that returned it
	vals := make([][][]types.Value, len(st.pieces))
	for k, sc := range st.pieces {
		if j.ctx.Err() != nil {
			return
		}
		start := sc.clk.Now()
		rows := make([][]types.Value, len(ids))
		read, bytes := 0, 64
		sc.st.ScanBatches(sc.lcols, sc.lp, u.lo, u.hi, sc.snap, maxRows, func(b *storage.Batch) bool {
			b.Selected(func(r int) bool {
				row := b.Row(r, nil)
				read++
				for _, v := range row {
					bytes += types.VarWidth(v)
				}
				id := b.RowIDs[r]
				if k == 0 {
					pos[id] = len(ids)
					ids = append(ids, id)
					rows = append(rows, row)
				} else if i, ok := pos[id]; ok {
					rows[i] = row
					hits[i]++
				}
				return true
			})
			return j.ctx.Err() == nil
		})
		sc.nanos.Add(int64(sc.clk.Since(start)))
		if k == 0 {
			hits = make([]int, len(ids))
		} else {
			sc.rows.Add(int64(read))
		}
		vals[k] = rows
		if read > 0 && sc.siteID != u.ps.siteID {
			if err := j.e.shipBytesTo(simnet.KindScan, sc.siteID, u.ps.siteID, bytes); err != nil {
				j.fail(err)
				return
			}
		}
	}
	start := u.ps.clk.Now()
	row := make([]types.Value, len(st.src))
	storage.TransposeRows(len(st.src), maxRows, func(emit func(schema.Row) bool) {
		for i, id := range ids {
			if hits[i] != len(st.pieces)-1 {
				continue
			}
			for c, s := range st.src {
				row[c] = vals[s.piece][i][s.pos]
			}
			if !emit(schema.Row{ID: id, Vals: row}) {
				return
			}
		}
	}, fn)
	u.ps.nanos.Add(int64(u.ps.clk.Since(start)))
}

// morselFeed doles one site's units out to that site's workers: a shared
// cursor, so claiming a unit is one atomic add and a worker that has a unit
// never waits on another goroutine for its next one.
type morselFeed struct {
	j      *morselJob
	siteID simnet.SiteID
	units  []morselUnit
	cursor atomic.Int64
}

// next claims the following unit; false once the units are exhausted or the
// job is cancelled, so a cancelled query stops scheduling and the scheduled
// counter reflects units workers actually saw.
func (f *morselFeed) next() (morselUnit, bool) {
	if int(f.cursor.Load()) >= len(f.units) {
		return morselUnit{}, false
	}
	// OLTP preemption: while a transaction is in flight at this site,
	// briefly stop claiming morsels so commits get the CPU first; the
	// grace is bounded so a steady OLTP stream cannot starve the scan.
	f.j.e.yieldToOLTP(f.siteID)
	if f.j.ctx.Err() != nil {
		return morselUnit{}, false
	}
	i := int(f.cursor.Add(1)) - 1
	if i >= len(f.units) {
		return morselUnit{}, false
	}
	f.j.e.cntMorselsScheduled.Inc()
	return f.units[i], true
}

// drain is one scan worker's loop: it claims units off feed, scans each in
// batches of up to batchRows rows, runs every non-empty batch through the
// job's probe pipeline and folds each surviving batch into w. It reports
// whether the worker ran out of units, rather than being stopped.
func drain[A siteAcc[A]](feed *morselFeed, w A, batchRows int) bool {
	j, siteID := feed.j, feed.siteID
	pr := j.newProber(siteID, batchRows)
	defer j.closeProber(siteID, pr)
	var ps *partScan // the unit being scanned
	sink := func(b *storage.Batch) bool {
		if n := b.Len(); n > 0 {
			// rows feeds the per-partition scan observation; count pre-join
			// so scan selectivity stays a scan property.
			ps.rows.Add(int64(n))
			if jb := pr.Apply(b); jb != nil {
				w.fold(jb)
			}
		}
		return j.ctx.Err() == nil
	}
	for u, ok := feed.next(); ok; u, ok = feed.next() {
		ps = u.ps
		j.scanUnit(u, batchRows, sink)
	}
	return j.ctx.Err() == nil
}

// siteAcc is the state of a sink, one per scan worker: fold takes the
// worker's probed batches, merge folds a finished worker's state into its
// site's, and seal readies the site's share for its one message, returning
// the payload bytes. A sink that fails the job or finds it cancelled needs
// no answer from fold: the worker's loop checks the job's context after
// every batch.
type siteAcc[A any] interface {
	fold(b *storage.Batch)
	merge(w A)
	seal() int
}

// siteRun is one site's part of a runSites call: the feed its workers claim
// units from, how many of them are still running, and the share the
// finished ones have merged into.
type siteRun[A siteAcc[A]] struct {
	feed   morselFeed
	live   atomic.Int32
	mu     sync.Mutex
	share  A
	merged bool
}

// runSite starts the site's workers: up to ScanWorkers goroutines over the
// one feed, each scanning in one of the site's scan slots (RunScan). Each
// folds its batches of up to batchRows rows into an accumulator of its own
// (newAcc is told the site) and, having run out of units, merges it under
// the site's lock, the first one's state becoming the site's. A crashed
// site's rejected workers scan without a slot, so its share is still
// scanned against live copies.
// Out of its slot, the site's last worker out ships the share when ship is
// set: once, as a message of kind k plus a 64-byte header; nothing crosses
// from the coordinator's own site.
func (r *siteRun[A]) runSite(wg *sync.WaitGroup, k simnet.Kind, ship bool, batchRows int, newAcc func(simnet.SiteID) A) {
	j, siteID := r.feed.j, r.feed.siteID
	s := j.e.siteOf(siteID)
	work := func() {
		w := newAcc(siteID)
		if !drain(&r.feed, w, batchRows) {
			return
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.merged {
			r.share.merge(w)
		} else {
			r.share, r.merged = w, true
		}
	}
	n := max(1, min(s.ScanWorkers(), len(r.feed.units)))
	r.live.Store(int32(n))
	for ; n > 0; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.RunScan(work); err != nil {
				work()
			}
			if r.live.Add(-1) > 0 || !ship || !r.merged || j.ctx.Err() != nil {
				return
			}
			if err := j.e.shipBytesTo(k, siteID, j.coord, r.share.seal()+64); err != nil {
				j.fail(err)
				return
			}
			j.e.cntScanBatches.Inc()
		}()
	}
}

// runSites is where every scan's workers start, whatever the sink: it runs
// each site's workers (runSite), every site's state carved from one slice,
// and waits for all of them; without ship every share stays where it was
// scanned. The sink chooses the scan's vector length, batchRows: a morsel
// for the sinks that fold each batch in place (aggregates, column chunks,
// join probes), ScanBatchRows for the streaming one, so a LIMIT never
// boxes a morsel's rows. It returns every site's share, or the job's error.
func runSites[A siteAcc[A]](j *morselJob, k simnet.Kind, ship bool, batchRows int, newAcc func(simnet.SiteID) A) ([]A, error) {
	runs := make([]siteRun[A], len(j.units))
	var wg sync.WaitGroup
	i := 0
	for siteID, units := range j.units {
		r := &runs[i]
		i++
		r.feed.j, r.feed.siteID, r.feed.units = j, siteID, units
		r.runSite(&wg, k, ship, batchRows, newAcc)
	}
	wg.Wait()
	j.observe()
	if j.err != nil {
		return nil, j.err
	}
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	shares := make([]A, 0, len(runs))
	for i := range runs {
		if runs[i].merged {
			shares = append(shares, runs[i].share)
		}
	}
	return shares, nil
}

// rowAcc is the streaming sink, behind cursors and LIMIT: a worker boxes
// its batches into rows and, each time ScanBatchRows of them are ready,
// ships exactly those from its site to the coordinator and hands them to
// out, blocking while out is full, which bounds in-flight memory. What a
// worker holds when it runs out merges into its site's share, which ships
// once as every share does — the site's last, possibly empty, message —
// and is handed over after every worker has exited.
type rowAcc struct {
	j    *morselJob
	site simnet.SiteID
	out  chan<- exec.Rel
	rows [][]types.Value
}

func (a *rowAcc) fold(b *storage.Batch) {
	a.rows = b.AppendTuples(a.rows)
	n := a.j.e.scanBatchRows()
	for len(a.rows) >= n {
		rel := exec.Rel{Cols: a.j.cols, Tuples: a.rows[:n:n]}
		a.rows = append(make([][]types.Value, 0, n), a.rows[n:]...)
		if err := a.j.e.shipBytesTo(a.j.shipKind(), a.site, a.j.coord, rel.NumRows()*rel.RowBytes()+64); err != nil {
			a.j.fail(err)
			return
		}
		a.j.e.cntScanBatches.Inc()
		if !a.j.hand(a.out, rel) {
			return
		}
	}
}

func (a *rowAcc) merge(w *rowAcc) { a.rows = append(a.rows, w.rows...) }
func (a *rowAcc) seal() int       { return len(a.rows) * exec.Rel{Tuples: a.rows}.RowBytes() }

// hand passes a batch to a cursor's channel, waiting while it is full;
// false once the job is cancelled.
func (j *morselJob) hand(out chan<- exec.Rel, rel exec.Rel) bool {
	select {
	case out <- rel:
		j.e.cntMorselRows.Add(int64(rel.NumRows()))
		return true
	case <-j.ctx.Done():
		return false
	}
}

// aggAcc is runAgg's sink: an accumulator of the plan's aggregates, each
// worker's merged into its site's share, which ships priced as the
// partial relation it stands for.
type aggAcc struct{ agg *exec.Aggregator }

func (a aggAcc) fold(b *storage.Batch) { a.agg.ObserveBatch(b) }
func (a aggAcc) merge(w aggAcc)        { a.agg.MergeFrom(w.agg) }
func (a aggAcc) seal() int             { return a.agg.PartialBytes() }

// runAgg aggregates inside the morsel scan: each worker owns an
// accumulator (no tuple materialization), one share per site ships to the
// coordinator, and the coordinator merges the shares in order into the
// result. With no share (every morsel pruned, or an empty join build side)
// a global aggregate still yields its one row.
func (j *morselJob) runAgg(groupBy []int, specs []exec.AggSpec) (exec.Rel, error) {
	shares, err := runSites(j, j.shipKind(), true, j.e.morselRows(), func(simnet.SiteID) aggAcc {
		return aggAcc{exec.NewAggregator(groupBy, specs)}
	})
	if err != nil {
		return exec.Rel{}, err
	}
	var n int64
	for _, sc := range j.parts {
		n += sc.rows.Load()
	}
	j.e.cntMorselRows.Add(n)
	return j.e.aggregateAt(j.coord, groupBy, specs, j.cols, func(agg *exec.Aggregator) (in, width int) {
		bytes := 0
		for _, s := range shares {
			agg.MergeFrom(s.agg)
			in += s.agg.Groups()
			bytes += s.agg.PartialBytes()
		}
		if in > 0 {
			width = bytes / in
		}
		return in, width
	}), nil
}

// observe emits the job's cost observations once every worker has exited.
func (j *morselJob) observe() {
	j.observeScans()
	j.observeJoins()
}

// observeJoins emits one batch-hash-join observation per pipelined join
// per probing site — build cardinality, that site's probe and output rows,
// its workers' summed probe time — so the cost model keeps training on
// joins that never run at the coordinator.
func (j *morselJob) observeJoins() {
	if len(j.joinStats) == 0 {
		return
	}
	probeWidth := 8 * j.width
	for siteID, acc := range j.joinStats {
		for k, st := range acc {
			t := j.pipes[siteID].Stages[k].Table
			if t == nil || st.ProbeRows == 0 {
				continue
			}
			sel := float64(st.OutRows) / (float64(t.Rows()) * float64(st.ProbeRows))
			j.e.siteOf(siteID).Observe(cost.Observation{
				Op:      cost.OpJoin,
				Variant: cost.JoinHashBatch,
				Features: cost.JoinFeaturesBatch(t.Rows(), int(st.ProbeRows), int(st.OutRows),
					t.Cols().RowBytes()+probeWidth, sel, 0),
				Latency: time.Duration(st.Nanos),
			})
		}
	}
}

// observeScans emits one scan cost observation per touched partition so
// the ASA's cost models keep training under the morsel executor. Features
// mirror exec.Scan's: store stats, per-row bytes, and the realized
// selectivity; latency is the partition's summed morsel scan time.
func (j *morselJob) observeScans() {
	for _, sc := range j.parts {
		rows := int(sc.rows.Load())
		nanos := sc.nanos.Load()
		if nanos == 0 && rows == 0 {
			continue
		}
		st := sc.st.Stats()
		layout := sc.st.Layout()
		inBytes := 0
		if st.Rows > 0 {
			inBytes = st.Bytes / st.Rows
		}
		outBytes := inBytes
		if n := len(sc.p.Kinds()); n > 0 && len(sc.lcols) > 0 {
			outBytes = inBytes * len(sc.lcols) / n
		}
		sel := 1.0
		if st.Rows > 0 {
			sel = float64(rows) / float64(st.Rows)
		}
		encFrac := 0.0
		if st.Bytes > 0 {
			encFrac = float64(st.EncodedBytes) / float64(st.Bytes)
		}
		j.e.siteOf(sc.siteID).Observe(cost.Observation{
			Op:       cost.OpScan,
			Variant:  sc.variant,
			Layout:   layout,
			Features: cost.ScanFeaturesEnc(st.Rows, inBytes, outBytes, sel, encFrac),
			Latency:  time.Duration(nanos),
		})
	}
}

// morselAgg runs an aggregation-over-scan on the morsel executor: the
// plan's aggregates inside the scan workers, one share per site, merged at
// the coordinator.
func (e *Engine) morselAgg(ctx context.Context, pa *plan.PAgg, ps *plan.PScan, snap txn.VersionVector, coord simnet.SiteID) (exec.Rel, error) {
	j, err := e.buildMorselJob(ctx, ps, snap, coord)
	if err != nil {
		return exec.Rel{}, err
	}
	defer j.cancel()
	return j.runAgg(pa.GroupBy, pa.Aggs)
}

// RowCursor streams a query's result rows incrementally: Next advances to
// the next row (pulling bounded batches off the workers' channel), Row
// returns it, Err reports a terminal error, and Close cancels the scan and
// waits for every worker to exit, so a cursor abandoned mid-stream leaks
// no goroutines. A streaming cursor holds its snapshot until EOF or
// Close: versions it may still read are not reclaimed until then. Cursors
// over materialized results iterate a fixed relation with the same
// interface.
type RowCursor struct {
	cols  []string
	ch    <-chan exec.Rel
	j     *morselJob // the streaming job; nil over a materialized result
	onEOF func(err error)

	cur    exec.Rel
	idx    int
	limit  int
	seen   int
	err    error
	closed bool
}

// cursor streams the job through a cursor: runSites with the streaming
// sink (rowAcc) behind a bounded channel, closed once every worker has
// exited and every site's leftover rows are handed over. limit > 0 ends the
// stream — cancelling the job — after that many rows.
func (j *morselJob) cursor(limit int, onEOF func(error)) *RowCursor {
	// Two batches in flight per site, and two more, let a site's workers
	// ship on while the consumer takes the last batch, yet bound memory.
	out := make(chan exec.Rel, 2*len(j.e.Sites)+2)
	go func() {
		defer close(out)
		batchRows := j.e.scanBatchRows()
		shares, err := runSites(j, j.shipKind(), true, batchRows, func(site simnet.SiteID) *rowAcc {
			return &rowAcc{j: j, site: site, out: out, rows: make([][]types.Value, 0, batchRows)}
		})
		if err != nil {
			return
		}
		for _, s := range shares {
			if len(s.rows) > 0 && !j.hand(out, exec.Rel{Cols: j.cols, Tuples: s.rows}) {
				return
			}
		}
	}()
	return &RowCursor{
		cols:  j.cols,
		ch:    out,
		j:     j,
		onEOF: onEOF,
		idx:   -1,
		limit: limit,
	}
}

// newStaticCursor iterates an already-materialized relation.
func newStaticCursor(rel exec.Rel, onEOF func(error)) *RowCursor {
	ch := make(chan exec.Rel, 1)
	ch <- rel
	close(ch)
	return &RowCursor{
		cols:  rel.Cols,
		ch:    ch,
		onEOF: onEOF,
		idx:   -1,
	}
}

// Cols returns the result column labels.
func (c *RowCursor) Cols() []string { return c.cols }

// Next advances to the next row, reporting whether one is available.
func (c *RowCursor) Next() bool {
	if c.closed {
		return false
	}
	if c.limit > 0 && c.seen >= c.limit {
		c.finish()
		return false
	}
	c.idx++
	for c.idx >= len(c.cur.Tuples) {
		batch, ok := <-c.ch
		if !ok {
			c.finish()
			return false
		}
		c.cur, c.idx = batch, 0
	}
	c.seen++
	return true
}

// Row returns the current row. Valid after Next reports true; the slice is
// owned by the cursor until the following Next call.
func (c *RowCursor) Row() []types.Value { return c.cur.Tuples[c.idx] }

// Err returns the terminal error, if any, once Next has reported false.
func (c *RowCursor) Err() error { return c.err }

// finish terminates the stream: cancel the feeds, drain the channel until
// the producer closes it (guaranteeing every worker has exited), then
// record the job's error and notify the completion hook.
func (c *RowCursor) finish() {
	if c.closed {
		return
	}
	c.closed = true
	if c.j != nil {
		c.j.cancel()
	}
	for range c.ch {
	}
	if c.j != nil {
		c.err = c.j.err
	}
	if c.onEOF != nil {
		c.onEOF(c.err)
	}
}

// Close releases the cursor; safe to call at any point and more than once.
func (c *RowCursor) Close() error {
	c.finish()
	return c.err
}
