package cluster

import (
	"context"
	"fmt"
	"slices"
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
	"proteus/internal/redolog"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/txn"
	"proteus/internal/types"
	"proteus/internal/vclock"
)

// Session is one client's connection; it carries the SSSI watermark.
type Session struct {
	s *txn.Session
}

// NewSession opens a client session.
func (e *Engine) NewSession() *Session {
	return &Session{s: txn.NewSession()}
}

// snapshotFor builds a consistent SI snapshot covering every partition of
// the pid sets: current master versions, raised to the session watermark
// (SSSI) and closed under commit dependencies (§4.2). The snapshot is
// registered before any version is read, so no maintenance tick reclaims a
// version it may read; the caller releases the returned slot once the
// operation reads nothing more.
func (e *Engine) snapshotFor(sess *Session, pidSets ...[]partition.ID) (txn.VersionVector, *snapSlot) {
	slot := e.snaps.acquire()
	n := 0
	for _, pids := range pidSets {
		n += len(pids)
	}
	snap := make(txn.VersionVector, n)
	for _, pids := range pidSets {
		for _, pid := range pids {
			m, ok := e.Dir.Get(pid)
			if !ok {
				continue
			}
			// Read the version from a live copy: with the master down, a
			// replica's applied version still defines a serviceable snapshot.
			rep, ok := e.liveCopy(m)
			if !ok {
				continue
			}
			if p, ok := e.siteOf(rep.Site).Partition(pid); ok {
				snap[pid] = p.Version()
			}
		}
	}
	if sess != nil {
		sess.s.Raise(snap)
	}
	snap = e.Deps.Close(snap)
	e.snaps.publish(slot, snap)
	return snap, slot
}

// siteWork is one site's share of a transaction: the reads it serves and
// the writes it masters. A remote site gets all of it in one request and
// answers in one reply: the prepare and its vote when it has writes, a read
// round trip when it has none (the read-only 2PC optimisation: no prepare,
// no phase 2).
type siteWork struct {
	site  simnet.SiteID
	reads []pieceOp
	ops   []pieceOp
	// pids are the partitions ops write, once each; masters holds, at the
	// same index, the site's master copy of each.
	pids    []partition.ID
	masters []*partition.Partition
}

// master returns the site's master copy of a partition its ops write.
func (sw *siteWork) master(pid partition.ID) *partition.Partition {
	return sw.masters[slices.Index(sw.pids, pid)]
}

// txnWork is a transaction's reads and writes grouped by site.
type txnWork struct {
	e      *Engine
	coord  simnet.SiteID
	snap   txn.VersionVector
	sites  []siteWork
	tuples [][]types.Value // one per read op, in op order
}

// groupWork binds every op to a site: a write to its partition's planned
// master; a read to the planned copy, a live copy when that copy's site is
// down, the master when the planned copy is gone (a stale plan decision).
func (e *Engine) groupWork(coord simnet.SiteID, tp *plan.TxnPlan, snap txn.VersionVector) (*txnWork, error) {
	nVals, nReads, nPieces := 0, 0, 0
	for _, b := range tp.Bindings {
		if nPieces += len(b.Pieces); b.Op.Kind == query.OpRead {
			nVals, nReads = nVals+len(b.Op.Cols), nReads+1
		}
	}
	tw := &txnWork{e: e, coord: coord, snap: snap, tuples: make([][]types.Value, 0, nReads)}
	vals, pieces := make([]types.Value, nVals), make([]pieceOp, 0, nPieces)
	for _, b := range tp.Bindings {
		slot, n := len(tw.tuples), len(b.Op.Cols)
		if b.Op.Kind == query.OpRead {
			tw.tuples, vals = append(tw.tuples, vals[:n:n]), vals[n:]
		}
		for i, m := range b.Pieces {
			cols, valIx := plan.PieceCols(b.Op, m)
			po := pieceOp{op: b.Op, meta: m, cols: cols, valIx: valIx, slot: slot, site: b.Copies[i].Site}
			switch {
			case b.Op.Kind != query.OpRead:
				if len(cols) > 0 || b.Op.Kind != query.OpUpdate {
					pieces = append(pieces, po)
				}
			case len(cols) > 0:
				s := e.siteOf(po.site)
				if s.Down() {
					rep, ok := e.liveCopy(m)
					if !ok {
						return nil, fmt.Errorf("%w: partition %d has no live copy", faults.ErrSiteDown, m.ID)
					}
					s = e.siteOf(rep.Site)
				}
				if _, ok := s.Partition(m.ID); !ok {
					s = e.siteOf(m.Master().Site)
				}
				po.site = s.ID
				pieces = append(pieces, po)
			}
		}
	}
	// One run per site, its reads first: the site's share is two subslices.
	key := func(po pieceOp) int {
		if po.op.Kind == query.OpRead {
			return 2 * int(po.site)
		}
		return 2*int(po.site) + 1
	}
	slices.SortStableFunc(pieces, func(a, b pieceOp) int { return key(a) - key(b) })
	for i, j := 0, 0; i < len(pieces); i = j {
		k := i
		for j = i; j < len(pieces) && pieces[j].site == pieces[i].site; j++ {
			if pieces[j].op.Kind == query.OpRead {
				k++
			}
		}
		tw.sites = append(tw.sites, siteWork{site: pieces[i].site, reads: pieces[i:k:k], ops: pieces[k:j:j]})
	}
	return tw, nil
}

// serveUnlocked serves every read that does not ride a prepare: the
// coordinator's inline, then each read-only site's in one round trip, the
// sites overlapping.
func (tw *txnWork) serveUnlocked() error {
	var remote []*siteWork
	for i := range tw.sites {
		sw := &tw.sites[i]
		if sw.site == tw.coord {
			if err := tw.serve(sw); err != nil {
				return err
			}
		} else if len(sw.ops) == 0 {
			remote = append(remote, sw)
		}
	}
	if len(remote) == 0 {
		return nil
	}
	_, err := txn.Fanout(len(remote), func(int) bool { return true }, func(i int) error {
		req, reply := readBytes(remote[i].reads)
		if err := tw.e.exchange(simnet.KindRead, tw.coord, remote[i].site, req, reply); err != nil {
			return err
		}
		return tw.serve(remote[i])
	})
	return err
}

// serve reads a site's batch at the snapshot. A replica behind the
// snapshot catches up first (the SSSI freshness wait, §4.2); a master —
// where every read of a written partition goes — never waits.
func (tw *txnWork) serve(sw *siteWork) error {
	e, s, coordSite := tw.e, tw.e.siteOf(sw.site), tw.e.siteOf(tw.coord)
	for k := range sw.reads {
		r := &sw.reads[k]
		p, ok := s.Partition(r.meta.ID)
		if !ok {
			return fmt.Errorf("%w: partition %d unreadable", ErrStalePlan, r.meta.ID)
		}
		ver := tw.snap[r.meta.ID]
		if at := p.Version(); at < ver && !s.IsMaster(r.meta.ID) {
			start := e.clk.Now()
			// A replica that cannot reach the snapshot (broker partitioned
			// away, catch-up timed out) fails typed, never reads stale data.
			if _, err := s.Repl.CatchUp(r.meta.ID, ver); err != nil {
				return err
			}
			coordSite.Observe(cost.Observation{Op: cost.OpWaitUpdates, Features: cost.WaitFeatures(int(ver - at)), Latency: e.clk.Since(start)})
		}
		row, found, o := exec.PointRead(p, r.op.Row, r.cols, ver)
		coordSite.Observe(o)
		if r.found = found; found {
			for j, vi := range r.valIx {
				tw.tuples[r.slot][vi] = row.Vals[j]
			}
		}
	}
	return nil
}

// result is the values read, one tuple per read op (nil when no piece found
// the row).
func (tw *txnWork) result() exec.Rel {
	out := exec.Rel{Tuples: make([][]types.Value, len(tw.tuples))}
	for _, sw := range tw.sites {
		for _, r := range sw.reads {
			if r.found {
				out.Tuples[r.slot] = tw.tuples[r.slot]
			}
		}
	}
	return out
}

// readBytes is a batch's wire size: 64 request bytes per read, and 64 plus
// 32 per column in the reply.
func readBytes(batch []pieceOp) (req, reply int) {
	for _, r := range batch {
		req, reply = req+64, reply+64+32*len(r.cols)
	}
	return req, reply
}

// ExecuteTxn runs an OLTP transaction under SSSI, returning the values
// read (one tuple per read op, in op order). It is admitted at OLTP
// priority — queued commits drain ahead of queued scans, and a shed (typed
// faults.ErrOverload) means the transaction never started, so a shed write
// is never acknowledged — and retried as withRetries describes.
func (e *Engine) ExecuteTxn(ctx context.Context, sess *Session, t *query.Txn) (exec.Rel, error) {
	var rel exec.Rel
	err := e.withRetries(ctx, admission.PriorityOLTP, func() (err error) {
		rel, err = e.executeTxnOnce(ctx, sess, t)
		return err
	})
	return rel, err
}

func (e *Engine) executeTxnOnce(ctx context.Context, sess *Session, t *query.Txn) (exec.Rel, error) {
	var err error
	if err = ctx.Err(); err != nil {
		return exec.Rel{}, err
	}
	planStart := e.clk.Now()
	tp, err := e.Planner.PlanTxn(t)
	if err != nil {
		return exec.Rel{}, err
	}
	e.stats.Record(ClassOLTPPlan, e.clk.Since(planStart))
	e.recordTxnAccesses(tp)

	coord := tp.Coordinator
	// Dispatch from the ASA to the coordinating site.
	if _, err := e.Net.SendKind(simnet.KindDispatch, simnet.ASASite, coord, 128+32*len(t.Ops)); err != nil {
		return exec.Rel{}, err
	}

	var result exec.Rel
	var execErr error
	start := e.clk.Now()
	// The transaction runs here, in an OLTP slot of its coordinating site,
	// which counts it in flight while it waits for the slot too: morsel
	// feeders there yield as soon as it is headed their way (yieldToOLTP).
	err = e.siteOf(coord).RunOLTP(func() {
		result, execErr = e.runTxnAt(ctx, coord, sess, tp)
	})
	if err != nil {
		return exec.Rel{}, err
	}
	d := e.clk.Since(start)
	if execErr != nil {
		e.stats.RecordAbort()
		return exec.Rel{}, execErr
	}
	e.stats.Record(ClassOLTP, d)
	if e.Advisor != nil {
		e.Advisor.onTxnExecuted(tp)
	}
	return result, nil
}

func (e *Engine) runTxnAt(ctx context.Context, coord simnet.SiteID, sess *Session, tp *plan.TxnPlan) (exec.Rel, error) {
	snap, slot := e.snapshotFor(sess, tp.ReadPIDs, tp.WritePIDs)
	defer e.snaps.release(slot)

	// Reads run at the snapshot. Every read not bound for a remote write
	// site runs now, before any lock, so its latency does not serialize hot
	// partitions; a remote write site's reads ride its prepare, a round trip
	// the transaction pays under the locks anyway.
	tw, err := e.groupWork(coord, tp, snap)
	if err != nil {
		return exec.Rel{}, err
	}
	if err := tw.serveUnlocked(); err != nil {
		return exec.Rel{}, err
	}

	// Writes: exclusive locks on the write set in global order (no
	// deadlocks), then 2PC across the write sites. The locks cover version
	// reservation, the prepares and staging; the redo append and version
	// install run in a group-commit flush after the locks drop, led by this
	// transaction or a concurrent one, and the transaction acks once its
	// flush completes.
	if len(tp.WritePIDs) > 0 {
		lockStart := e.clk.Now()
		ls := e.Locks.AcquireAll(nil, tp.WritePIDs)
		// Aggregate contention across the whole write set — sampling only
		// the first partition would blind the ASA's lock cost model to
		// multi-partition hot spots.
		var waiters int
		var recent time.Duration
		for _, pid := range tp.WritePIDs {
			w, r := e.Locks.Contention(pid)
			waiters += w
			if r > recent {
				recent = r
			}
		}
		e.siteOf(coord).Observe(cost.Observation{
			Op:       cost.OpLock,
			Features: cost.LockFeatures(waiters, recent),
			Latency:  e.clk.Since(lockStart),
		})
		finish, err := e.applyWrites(tw, tp, sess)
		ls.ReleaseAll()
		if err != nil {
			return exec.Rel{}, err
		}
		if err := finish(ctx); err != nil {
			return exec.Rel{}, err
		}
	}

	// SSSI: the session must observe everything it read.
	sess.s.ObserveOf(snap, tp.ReadPIDs)
	return tw.result(), nil
}

// pieceOp is one covering piece of an op: the piece's columns, and where
// their values sit in the op's values (writes) or its result tuple (reads).
type pieceOp struct {
	op    query.Op
	meta  *metadata.PartitionMeta
	cols  []schema.ColID
	valIx []int
	site  simnet.SiteID // the site that serves or masters the piece
	slot  int           // a read's position among the transaction's reads
	found bool          // the read found the row
	// entry is a write's redo entry, built once up front; its Vals (and
	// Cols, converted to partition-local IDs) are shared with the staging
	// apply in writeParticipant.Commit instead of being re-allocated there.
	entry redolog.Entry
}

// buildEntries fills each op's redo entry, packing all of a write group's
// values (and local column IDs) into two shared arenas so a transaction
// allocates O(1) slices per site rather than O(ops).
func buildEntries(sw *siteWork) {
	nVals, nCols := 0, 0
	for _, w := range sw.ops {
		if w.op.Kind != query.OpDelete {
			nVals += len(w.cols)
		}
		if w.op.Kind == query.OpUpdate {
			nCols += len(w.cols)
		}
	}
	valArena := make([]types.Value, 0, nVals)
	colArena := make([]schema.ColID, 0, nCols)
	for i := range sw.ops {
		w := &sw.ops[i]
		w.entry = redolog.Entry{Op: redolog.OpUpdate, Row: w.op.Row}
		switch w.op.Kind {
		case query.OpDelete:
			w.entry.Op = redolog.OpDelete
			continue
		case query.OpInsert:
			w.entry.Op = redolog.OpInsert
		default:
			cbase := len(colArena)
			for _, c := range w.cols {
				colArena = append(colArena, w.meta.Bounds.LocalCol(c))
			}
			w.entry.Cols = colArena[cbase:len(colArena):len(colArena)]
		}
		base := len(valArena)
		for _, vi := range w.valIx {
			valArena = append(valArena, w.op.Vals[vi])
		}
		w.entry.Vals = valArena[base:len(valArena):len(valArena)]
	}
}

// applyWrites runs the write/commit phase under the caller-held exclusive
// locks: check the planned masters, reserve versions, stage via 2PC, record
// the commit's dependencies, and enqueue the redo records on the master
// sites' commit queues. It returns a finish function the caller must
// invoke after releasing the locks: it leads every site's flush that has
// no leader, then blocks until every site's flush completes (the
// durability point) and raises the session watermark. A cancelled or
// expired ctx unblocks the wait with ctx.Err(): the flush itself still
// completes (the groups are past the commit point, and a site's leader
// leaves only with its queue empty), only the waiter abandons — so the
// write may be durable without ever being acked.
func (e *Engine) applyWrites(tw *txnWork, tp *plan.TxnPlan, sess *Session) (func(context.Context) error, error) {
	coord := tw.coord
	// Reserve the new version of every written partition. The installed
	// version lags the reservation (the flush installs after the locks
	// drop), so reservations come from the partition's reservation
	// counter; version gaps from aborts are harmless — every consumer
	// compares versions, none counts them.
	// Ops were grouped by the masters the plan saw: one that moved while
	// the locks were awaited (failover, master change) makes the plan stale.
	nSites, nOps := 0, 0
	for _, sw := range tw.sites {
		if len(sw.ops) > 0 {
			nSites, nOps = nSites+1, nOps+len(sw.ops)
		}
	}
	versions := make(txn.VersionVector, len(tp.WritePIDs))
	pids := make([]partition.ID, 0, len(tp.WritePIDs))
	masters := make([]*partition.Partition, 0, len(tp.WritePIDs))
	wps := make([]writeParticipant, 0, nSites)
	participants := make([]txn.Participant, 0, nSites)
	for i := range tw.sites {
		sw := &tw.sites[i]
		if len(sw.ops) == 0 {
			continue
		}
		buildEntries(sw)
		base := len(pids)
		for _, w := range sw.ops {
			if _, ok := versions[w.meta.ID]; ok {
				continue
			}
			p, ok := e.siteOf(sw.site).Partition(w.meta.ID)
			if !ok || w.meta.Master().Site != sw.site {
				return nil, fmt.Errorf("%w: write partition %d moved", ErrStalePlan, w.meta.ID)
			}
			pids, masters = append(pids, w.meta.ID), append(masters, p)
			versions[w.meta.ID] = p.ReserveNext()
		}
		sw.pids, sw.masters = pids[base:len(pids):len(pids)], masters[base:len(masters):len(masters)]
		wps = append(wps, writeParticipant{tw: tw, sw: sw, versions: versions})
		participants = append(participants, &wps[len(wps)-1])
	}

	// Two-phase commit across the write sites (§4.3). A lone participant is
	// the coordinator's own site, so one phase skips no carried reads.
	c := &txn.Coordinator{OnePhase: true}
	commitStart := e.clk.Now()
	if err := c.Commit(e.nextTxnID(), participants); err != nil {
		return nil, err
	}

	// The commit point. The dependencies are recorded here, under the locks
	// the versions were reserved under and before any of them is installed:
	// each partition's run is append-only by construction, and no snapshot
	// can observe an installed version whose siblings the tracker does not
	// know yet — a torn cross-partition snapshot — whatever later happens to
	// this transaction's waiter.
	e.Deps.RecordCommit(versions)

	// One redo record per partition, its entries grouped out of one arena,
	// every record carrying the commit's one version vector as Deps; one
	// flush group per master site and a shared completion channel. Leading
	// and waiting are deferred until after the locks are released.
	entries := make([]redolog.Entry, 0, nOps)
	recs := make([]redolog.Record, 0, len(pids))
	installs := make([]versionInstall, 0, len(pids))
	flushed := make(chan struct{}, len(participants))
	for i := range tw.sites {
		sw := &tw.sites[i]
		if len(sw.pids) == 0 {
			continue
		}
		first := len(recs)
		for k, pid := range sw.pids {
			base := len(entries)
			for _, w := range sw.ops {
				if w.meta.ID == pid {
					entries = append(entries, w.entry)
				}
			}
			recs = append(recs, redolog.Record{Partition: pid, Version: versions[pid],
				Entries: entries[base:len(entries):len(entries)], Deps: versions})
			installs = append(installs, versionInstall{p: sw.masters[k], ver: versions[pid]})
		}
		e.gc.enqueue(sw.site, flushGroup{coord: coord, done: flushed,
			recs: recs[first:len(recs):len(recs)], installs: installs[first:len(installs):len(installs)]})
	}
	return func(ctx context.Context) error {
		// Lead before looking at ctx: a site whose queue holds this
		// transaction's group and has no leader would otherwise have no
		// one to flush it.
		for i := range tw.sites {
			if len(tw.sites[i].pids) > 0 {
				e.gc.lead(tw.sites[i].site)
			}
		}
		// A group still unflushed has a leader that is flushing — modelled
		// network time — so a simulated clock may count the follower as
		// parked.
		release := vclock.Park(e.clk)
		defer release()
		// flushed is buffered for every group, so a leader never blocks
		// signalling a follower that already abandoned.
		for range participants {
			select {
			case <-flushed:
			case <-ctx.Done():
				// The groups are past the commit point: every site's leader
				// will still durably install its versions, and their
				// dependencies are already recorded, so the write becomes
				// visible atomically; only the ack is abandoned.
				return ctx.Err()
			}
		}
		sess.s.Observe(versions)
		// Commit cost: partitions read/written and sites involved.
		e.siteOf(coord).Observe(cost.Observation{
			Op:       cost.OpCommit,
			Features: cost.CommitFeatures(len(tp.ReadPIDs), len(tp.WritePIDs), len(participants)),
			Latency:  e.clk.Since(commitStart),
		})
		return nil
	}, nil
}

// writeParticipant adapts one site's write group to the 2PC interface.
type writeParticipant struct {
	tw       *txnWork
	sw       *siteWork
	versions txn.VersionVector
}

// Remote reports whether the site is not the coordinator's (txn.Remote).
func (wp *writeParticipant) Remote() bool { return wp.sw.site != wp.tw.coord }

// Prepare is one round trip to a remote site: the request carries the
// site's reads, the reply their values and the vote. The site serves the
// reads at the snapshot and validates the ops. A fault on the round trip
// aborts the transaction before the commit point — no participant has
// applied anything yet — and the typed error drives the retry.
func (wp *writeParticipant) Prepare(txnID uint64) error {
	if wp.Remote() {
		req, reply := readBytes(wp.sw.reads)
		if err := wp.tw.e.exchange(simnet.KindPrepare, wp.tw.coord, wp.sw.site, 128+req, 32+reply); err != nil {
			return err
		}
		if err := wp.tw.serve(wp.sw); err != nil {
			return err
		}
	}
	for _, w := range wp.sw.ops {
		p := wp.sw.master(w.meta.ID)
		switch w.op.Kind {
		case query.OpUpdate, query.OpDelete:
			if _, ok := p.Get(w.op.Row, nil, storage.Latest); !ok {
				return fmt.Errorf("cluster: row %d missing in partition %d", w.op.Row, w.meta.ID)
			}
		case query.OpInsert:
			if _, ok := p.Get(w.op.Row, nil, storage.Latest); ok {
				return fmt.Errorf("cluster: duplicate row %d in partition %d", w.op.Row, w.meta.ID)
			}
		}
	}
	return nil
}

// Commit applies the staged writes at the reserved versions. Past the
// commit point network faults are absorbed (ChargeKind), not surfaced: every
// prepared participant must apply, or participants would diverge on a
// decided transaction.
func (wp *writeParticipant) Commit(txnID uint64) error {
	s := wp.tw.e.siteOf(wp.sw.site)
	for _, w := range wp.sw.ops {
		p := wp.sw.master(w.meta.ID)
		ver := wp.versions[w.meta.ID]
		var obs cost.Observation
		var err error
		switch w.op.Kind {
		case query.OpInsert:
			obs, err = exec.Insert(p, schema.Row{ID: w.op.Row, Vals: w.entry.Vals}, ver)
		case query.OpDelete:
			obs, err = exec.Delete(p, w.op.Row, ver)
		default:
			obs, err = exec.Update(p, w.op.Row, w.cols, w.entry.Vals, ver)
		}
		if err != nil {
			return err
		}
		s.Observe(obs)
	}
	// TiDB mode: synchronous Raft replication to followers per write.
	if wp.tw.e.cfg.Mode == ModeTiDB {
		for f := 0; f < raftFollowers; f++ {
			follower := simnet.SiteID((int(wp.sw.site) + 1 + f) % len(wp.tw.e.Sites))
			if follower != wp.sw.site {
				wp.tw.e.Net.ChargeKind(simnet.KindReplication, wp.sw.site, follower, 256)
				wp.tw.e.Net.ChargeKind(simnet.KindReplication, follower, wp.sw.site, 32)
			}
		}
	}
	return nil
}

// Abort discards (nothing staged before Commit in this engine).
func (wp *writeParticipant) Abort(txnID uint64) error { return nil }

// recordTxnAccesses updates trackers, column stats and co-access edges.
// Edges join the transaction's distinct partitions pairwise, both ways and
// never a partition to itself, when there are at most eight of them.
func (e *Engine) recordTxnAccesses(tp *plan.TxnPlan) {
	var buf [8]*metadata.PartitionMeta
	distinct := buf[:0]
	bounded := len(tp.ReadPIDs)+len(tp.WritePIDs) <= len(buf)
	for _, b := range tp.Bindings {
		write := b.Op.Kind != query.OpRead
		for _, m := range b.Pieces {
			if write {
				m.Tracker.Record(forecast.Update, 1)
			} else {
				m.Tracker.Record(forecast.PointRead, 1)
			}
			e.Dir.RecordColumnAccess(m.Bounds.Table, b.Op.Cols, write)
			if bounded && !slices.Contains(distinct, m) {
				distinct = append(distinct, m)
			}
		}
	}
	for _, a := range distinct {
		for _, b := range distinct {
			if a != b {
				a.RecordCoAccess(b.ID, 1)
			}
		}
	}
}
