package cluster

import (
	"context"
	"fmt"
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

// snapshotFor builds a consistent SI snapshot covering pids: current
// master versions, raised to the session watermark (SSSI) and closed under
// commit dependencies (§4.2).
func (e *Engine) snapshotFor(pids []partition.ID, sess *Session) txn.VersionVector {
	snap := make(txn.VersionVector, len(pids))
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
	if sess != nil {
		sess.s.Raise(snap)
	}
	return e.Deps.Close(snap)
}

// readCopy reads one row piece at the snapshot version from the chosen
// copy, waiting on replication freshness when the copy is a replica.
func (e *Engine) readCopy(m *metadata.PartitionMeta, copyAt metadata.Replica, coord simnet.SiteID,
	row schema.RowID, cols []schema.ColID, snapVer uint64) (schema.Row, bool, []cost.Observation, error) {

	var obs []cost.Observation
	s := e.siteOf(copyAt.Site)
	if s.Down() {
		// The planned copy's site crashed: redirect to any live copy.
		rep, ok := e.liveCopy(m)
		if !ok {
			return schema.Row{}, false, obs, fmt.Errorf("%w: partition %d has no live copy", faults.ErrSiteDown, m.ID)
		}
		s = e.siteOf(rep.Site)
	}
	p, ok := s.Partition(m.ID)
	if !ok {
		// Stale plan decision: fall back to the master copy.
		master := m.Master()
		s = e.siteOf(master.Site)
		p, ok = s.Partition(m.ID)
		if !ok {
			return schema.Row{}, false, obs, fmt.Errorf("%w: partition %d unreadable", ErrStalePlan, m.ID)
		}
	}
	if !s.IsMaster(m.ID) && p.Version() < snapVer {
		start := e.clk.Now()
		if _, err := s.Repl.CatchUp(m.ID, snapVer); err != nil {
			// The replica cannot reach the snapshot (broker partitioned
			// away, or catch-up timed out): surface the typed error rather
			// than silently reading stale data.
			return schema.Row{}, false, obs, err
		}
		obs = append(obs, cost.Observation{
			Op:       cost.OpWaitUpdates,
			Features: cost.WaitFeatures(int(snapVer - p.Version() + 1)),
			Latency:  e.clk.Since(start),
		})
	}
	r, found, o := exec.PointRead(p, row, cols, snapVer)
	obs = append(obs, o)
	if s.ID != coord {
		var d time.Duration
		err := e.Faults.Retry(e.sendBackoff(), func() error {
			dd, err := e.Net.Send(coord, s.ID, 64)
			if err != nil {
				return err
			}
			d += dd
			dd, err = e.Net.Send(s.ID, coord, 64+32*len(cols))
			d += dd
			return err
		})
		if err != nil {
			return schema.Row{}, false, obs, err
		}
		obs = append(obs, cost.Observation{
			Op:       cost.OpNetwork,
			Features: cost.NetworkFeatures(e.siteOf(coord).CPU(), s.CPU(), 64, 64+32*len(cols)),
			Latency:  d,
		})
	}
	return r, found, obs, nil
}

// coordinatorFor picks the transaction's coordinating site: the first
// write master, else the first read copy.
func coordinatorFor(tp *plan.TxnPlan) simnet.SiteID {
	for _, b := range tp.Bindings {
		if b.Op.Kind != query.OpRead {
			return b.Copies[0].Site
		}
	}
	if len(tp.Bindings) > 0 {
		return tp.Bindings[0].Copies[0].Site
	}
	return 0
}

// ExecuteTxn runs an OLTP transaction under SSSI, returning the values
// read (one tuple per read op, in op order). Retriable failures — a plan
// invalidated by a concurrent layout change, a crashed site awaiting
// failover, a dropped message or transient partition — are re-planned and
// retried with seeded full-jitter backoff until the deadline (the
// context's, if set, else the configured operation deadline), after which
// the typed faults.ErrTimeout surfaces. Cancelling ctx aborts between
// attempts.
func (e *Engine) ExecuteTxn(ctx context.Context, sess *Session, t *query.Txn) (exec.Rel, error) {
	var rel exec.Rel
	var err error
	// Admission happens once per transaction, before the retry loop, at
	// OLTP priority: queued commits drain ahead of queued scans, and a
	// shed (typed faults.ErrOverload) means the transaction never started
	// — a shed write is never acknowledged.
	if err = e.admit(ctx, admission.PriorityOLTP); err != nil {
		return rel, err
	}
	deadline := e.queryDeadline(ctx)
	delay := e.retryBase()
	for {
		rel, err = e.executeTxnOnce(ctx, sess, t)
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

	coord := coordinatorFor(tp)
	// Dispatch from the ASA to the coordinating site.
	if _, err := e.Net.Send(simnet.ASASite, coord, 128+32*len(t.Ops)); err != nil {
		return exec.Rel{}, err
	}

	var result exec.Rel
	var execErr error
	start := e.clk.Now()
	// The in-flight marker covers queueing for an OLTP pool slot too:
	// morsel feeders at the site start yielding as soon as a transaction
	// is headed its way, not only once a worker picks it up.
	e.oltpEnter(coord)
	err = e.siteOf(coord).RunOLTP(func() {
		result, execErr = e.runTxnAt(ctx, coord, sess, t, tp)
	})
	e.oltpExit(coord)
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
		e.Advisor.onTxnExecuted(tp, d)
	}
	return result, nil
}

func (e *Engine) runTxnAt(ctx context.Context, coord simnet.SiteID, sess *Session, t *query.Txn, tp *plan.TxnPlan) (exec.Rel, error) {
	coordSite := e.siteOf(coord)

	allPids := append(append([]partition.ID{}, tp.ReadPIDs...), tp.WritePIDs...)
	snap := e.snapshotFor(allPids, sess)

	// Reads run lock-free under snapshot isolation; exclusive partition
	// locks are taken only for the write/commit phase below, so remote
	// read latency does not serialize hot partitions. Independent keyed
	// reads execute in parallel so remote round trips overlap.
	type readSlot struct {
		tuple []types.Value
		found bool
		err   error
	}
	var readIdx []int
	for bi, b := range tp.Bindings {
		if b.Op.Kind == query.OpRead {
			readIdx = append(readIdx, bi)
		}
	}
	slots := make([]readSlot, len(readIdx))
	var rwg sync.WaitGroup
	for si, bi := range readIdx {
		si, b := si, tp.Bindings[bi]
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			tuple := make([]types.Value, len(b.Op.Cols))
			found := false
			for i, m := range b.Pieces {
				cols, valIdx := plan.PieceCols(b.Op, m)
				if len(cols) == 0 {
					continue
				}
				r, ok, obs, err := e.readCopy(m, b.Copies[i], coord, b.Op.Row, cols, snap[m.ID])
				for _, o := range obs {
					coordSite.Observe(o)
				}
				if err != nil {
					slots[si].err = err
					return
				}
				if !ok {
					continue
				}
				found = true
				for j, vi := range valIdx {
					tuple[vi] = r.Vals[j]
				}
			}
			slots[si].tuple, slots[si].found = tuple, found
		}()
	}
	rwg.Wait()
	result := exec.Rel{}
	for _, sl := range slots {
		if sl.err != nil {
			return exec.Rel{}, sl.err
		}
		if sl.found {
			result.Tuples = append(result.Tuples, sl.tuple)
		} else {
			result.Tuples = append(result.Tuples, nil)
		}
	}

	// Writes: acquire exclusive locks on the write set in global order
	// (no deadlocks), then group by master site and apply with 2PC when
	// more than one site is involved. The locks cover only version
	// reservation and staging; the redo append and version install run in
	// the group-commit flusher after the locks are released, and the
	// transaction acks once its flush completes.
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
		coordSite.Observe(cost.Observation{
			Op:       cost.OpLock,
			Features: cost.LockFeatures(waiters, recent),
			Latency:  e.clk.Since(lockStart),
		})
		finish, err := e.applyWrites(coord, tp, sess)
		ls.ReleaseAll()
		if err != nil {
			return exec.Rel{}, err
		}
		if finish != nil {
			if err := finish(ctx); err != nil {
				return exec.Rel{}, err
			}
		}
	}

	// SSSI: the session must observe everything it read.
	readVec := make(txn.VersionVector)
	for _, pid := range tp.ReadPIDs {
		readVec[pid] = snap[pid]
	}
	sess.s.Observe(readVec)
	return result, nil
}

// siteWrites groups a transaction's write ops per master site.
type siteWrites struct {
	site simnet.SiteID
	ops  []writeOp
}

type writeOp struct {
	op    query.Op
	meta  *metadata.PartitionMeta
	cols  []schema.ColID
	valIx []int
	// entry is the op's redo entry, built once up front; its Vals (and
	// Cols, converted to partition-local IDs) are shared with the staging
	// apply in writeParticipant.Commit instead of being re-allocated there.
	entry redolog.Entry
}

// buildEntries fills each op's redo entry, packing all of a write group's
// values (and local column IDs) into two shared arenas so a transaction
// allocates O(1) slices per site rather than O(ops).
func buildEntries(sw *siteWrites) {
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
		switch w.op.Kind {
		case query.OpInsert:
			base := len(valArena)
			for _, vi := range w.valIx {
				valArena = append(valArena, w.op.Vals[vi])
			}
			w.entry = redolog.Entry{Op: redolog.OpInsert, Row: w.op.Row,
				Vals: valArena[base:len(valArena):len(valArena)]}
		case query.OpDelete:
			w.entry = redolog.Entry{Op: redolog.OpDelete, Row: w.op.Row}
		default:
			cbase := len(colArena)
			for _, c := range w.cols {
				colArena = append(colArena, w.meta.Bounds.LocalCol(c))
			}
			base := len(valArena)
			for _, vi := range w.valIx {
				valArena = append(valArena, w.op.Vals[vi])
			}
			w.entry = redolog.Entry{Op: redolog.OpUpdate, Row: w.op.Row,
				Cols: colArena[cbase:len(colArena):len(colArena)],
				Vals: valArena[base:len(valArena):len(valArena)]}
		}
	}
}

// applyWrites runs the write/commit phase under the caller-held exclusive
// locks: group ops by master site, reserve versions, stage via 2PC, record
// the commit's dependencies, and either commit inline (DisableGroupCommit)
// or enqueue the redo records on the master sites' commit queues. In the
// latter case it returns a finish function the caller must invoke after
// releasing the locks; it blocks until every site's flush completes (the
// durability point), then raises the session watermark. A cancelled or
// expired ctx unblocks the wait with ctx.Err(): the flush itself still
// completes (the groups are past the commit point), only the waiter
// abandons — so the write may be durable without ever being acked.
func (e *Engine) applyWrites(coord simnet.SiteID, tp *plan.TxnPlan, sess *Session) (func(context.Context) error, error) {
	grouped := !e.cfg.DisableGroupCommit
	bySite := make(map[simnet.SiteID]*siteWrites, 2)
	for _, b := range tp.Bindings {
		if b.Op.Kind == query.OpRead {
			continue
		}
		for _, m := range b.Pieces {
			cols, valIx := plan.PieceCols(b.Op, m)
			if len(cols) == 0 && b.Op.Kind == query.OpUpdate {
				continue
			}
			st := m.Master().Site
			sw, ok := bySite[st]
			if !ok {
				sw = &siteWrites{site: st}
				bySite[st] = sw
			}
			sw.ops = append(sw.ops, writeOp{op: b.Op, meta: m, cols: cols, valIx: valIx})
		}
	}

	// Reserve the new version of every written partition. With group
	// commit the installed version lags the reservation (the flusher
	// installs after the locks drop), so reservations come from the
	// partition's reservation counter; version gaps from aborts are
	// harmless — every consumer compares versions, none counts them.
	versions := make(txn.VersionVector, len(tp.WritePIDs))
	masters := make(map[partition.ID]*partition.Partition, len(tp.WritePIDs))
	for _, sw := range bySite {
		buildEntries(sw)
		for _, w := range sw.ops {
			if _, ok := versions[w.meta.ID]; ok {
				continue
			}
			p, ok := e.siteOf(sw.site).Partition(w.meta.ID)
			if !ok {
				return nil, fmt.Errorf("%w: write partition %d moved", ErrStalePlan, w.meta.ID)
			}
			masters[w.meta.ID] = p
			if grouped {
				versions[w.meta.ID] = p.ReserveNext()
			} else {
				versions[w.meta.ID] = p.Version() + 1
			}
		}
	}

	// Two-phase commit across the write sites (§4.3).
	participants := make([]txn.Participant, 0, len(bySite))
	for _, sw := range bySite {
		participants = append(participants, &writeParticipant{
			e: e, coord: coord, sw: sw, versions: versions, masters: masters,
			inline: !grouped,
		})
	}
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

	// One redo record per partition, carrying the co-committed dependency
	// vector, grouped by master site for the commit queues.
	entriesByPID := make(map[partition.ID][]redolog.Entry, len(tp.WritePIDs))
	for _, sw := range bySite {
		for _, w := range sw.ops {
			entriesByPID[w.meta.ID] = append(entriesByPID[w.meta.ID], w.entry)
		}
	}
	record := func(pid partition.ID) redolog.Record {
		deps := make(map[partition.ID]uint64, len(versions)-1)
		for q, v := range versions {
			if q != pid {
				deps[q] = v
			}
		}
		return redolog.Record{Partition: pid, Version: versions[pid], Entries: entriesByPID[pid], Deps: deps}
	}

	acked := func() {
		sess.s.Observe(versions)
		// Commit cost: partitions read/written and sites involved.
		e.siteOf(coord).Observe(cost.Observation{
			Op:       cost.OpCommit,
			Features: cost.CommitFeatures(len(tp.ReadPIDs), len(tp.WritePIDs), len(bySite)),
			Latency:  e.clk.Since(commitStart),
		})
	}

	if !grouped {
		// Legacy inline commit: append and install under the locks.
		for pid := range entriesByPID {
			e.Broker.Append(record(pid))
			masters[pid].SetVersion(versions[pid])
		}
		acked()
		return nil, nil
	}

	// Group commit: one flush group per master site, a shared completion
	// channel, and the wait deferred until after the locks are released.
	nGroups := 0
	flushed := make(chan struct{}, len(bySite))
	for _, sw := range bySite {
		fg := flushGroup{coord: coord, done: flushed}
		seen := make(map[partition.ID]struct{}, len(sw.ops))
		for _, w := range sw.ops {
			pid := w.meta.ID
			if _, ok := seen[pid]; ok {
				continue
			}
			seen[pid] = struct{}{}
			fg.recs = append(fg.recs, record(pid))
			fg.installs = append(fg.installs, versionInstall{p: masters[pid], ver: versions[pid]})
		}
		e.gc.enqueue(sw.site, fg)
		nGroups++
	}
	return func(ctx context.Context) error {
		// The flush that resolves this wait is kicked by arrivals or the
		// linger timer — virtual-time progress — so a simulated clock may
		// count the waiter as parked.
		release := vclock.Park(e.clk)
		defer release()
		// flushed is buffered for every group, so a flusher never blocks
		// signalling a waiter that already abandoned.
		for i := 0; i < nGroups; i++ {
			select {
			case <-flushed:
			case <-ctx.Done():
				// The groups are past the commit point: every flusher will
				// still durably install its versions, and their dependencies
				// are already recorded, so the write becomes visible
				// atomically; only the ack is abandoned.
				return ctx.Err()
			}
		}
		acked()
		return nil
	}, nil
}

// writeParticipant adapts one site's write group to the 2PC interface.
type writeParticipant struct {
	e        *Engine
	coord    simnet.SiteID
	sw       *siteWrites
	versions txn.VersionVector
	masters  map[partition.ID]*partition.Partition
	// inline marks the legacy path (group commit disabled): the commit
	// decision's round trip is charged per transaction here instead of
	// batched onto the flush.
	inline bool
}

// Prepare validates the ops (and charges the prepare round trip). A
// fault on the prepare round trip aborts the transaction before the
// commit point — no participant has applied anything yet — and the
// typed error drives the coordinator's retry.
func (wp *writeParticipant) Prepare(txnID uint64) error {
	if wp.sw.site != wp.coord {
		if err := wp.e.Faults.Retry(wp.e.sendBackoff(), func() error {
			if _, err := wp.e.Net.Send(wp.coord, wp.sw.site, 128); err != nil {
				return err
			}
			_, err := wp.e.Net.Send(wp.sw.site, wp.coord, 32)
			return err
		}); err != nil {
			return err
		}
	}
	for _, w := range wp.sw.ops {
		p := wp.masters[w.meta.ID]
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
// commit point network faults are absorbed (Charge), not surfaced: every
// prepared participant must apply, or participants would diverge on a
// decided transaction.
func (wp *writeParticipant) Commit(txnID uint64) error {
	if wp.inline && wp.sw.site != wp.coord {
		wp.e.Net.Charge(wp.coord, wp.sw.site, 128)
		wp.e.Net.Charge(wp.sw.site, wp.coord, 32)
	}
	s := wp.e.siteOf(wp.sw.site)
	for _, w := range wp.sw.ops {
		p := wp.masters[w.meta.ID]
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
	if wp.e.cfg.Mode == ModeTiDB {
		for f := 0; f < wp.e.cfg.RaftFollowers; f++ {
			follower := simnet.SiteID((int(wp.sw.site) + 1 + f) % len(wp.e.Sites))
			if follower != wp.sw.site {
				wp.e.Net.Charge(wp.sw.site, follower, 256)
				wp.e.Net.Charge(follower, wp.sw.site, 32)
			}
		}
	}
	return nil
}

// Abort discards (nothing staged before Commit in this engine).
func (wp *writeParticipant) Abort(txnID uint64) error { return nil }

// recordTxnAccesses updates trackers, co-access edges and column stats.
func (e *Engine) recordTxnAccesses(tp *plan.TxnPlan) {
	var pids []partition.ID
	for _, b := range tp.Bindings {
		for _, m := range b.Pieces {
			if b.Op.Kind == query.OpRead {
				m.Tracker.Record(forecast.PointRead, 1)
				e.Dir.RecordColumnAccess(m.Bounds.Table, b.Op.Cols, false)
			} else {
				m.Tracker.Record(forecast.Update, 1)
				e.Dir.RecordColumnAccess(m.Bounds.Table, b.Op.Cols, true)
			}
			pids = append(pids, m.ID)
		}
	}
	// Pairwise co-access (bounded).
	if len(pids) > 1 && len(pids) <= 8 {
		for i, a := range pids {
			if ma, ok := e.Dir.Get(a); ok {
				for j, bpid := range pids {
					if i != j {
						ma.RecordCoAccess(bpid, 1)
					}
				}
			}
		}
	}
}
