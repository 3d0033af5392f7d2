package cluster

import (
	"sort"
	"sync"
	"time"

	"proteus/internal/obs"
	"proteus/internal/partition"
	"proteus/internal/redolog"
	"proteus/internal/simnet"
)

// defaultFlushBatch bounds how many commit groups one flush drains.
const defaultFlushBatch = 256

// versionInstall is one deferred SetVersion the flush performs after the
// batched append makes the record durable.
type versionInstall struct {
	p   *partition.Partition
	ver uint64
}

// flushGroup is one transaction's contribution to one master site's flush:
// the redo records for every partition the transaction wrote at that site,
// the deferred version installs, and the channel the commit waiter blocks
// on. done is buffered by the enqueuer so a flush never blocks signalling
// completion.
//
// A group is enqueued only while the transaction holds the exclusive lock
// of every partition it touches, and the 2PC decision has already been
// made by then — so a group, once enqueued, always flushes. Crash
// failover, recovery and layout changes all take the same partition locks
// and barrier the queue first, which is what keeps a flushed record on the
// surviving log lineage: no code path can rebuild or re-master a partition
// between a transaction's staging and its append.
type flushGroup struct {
	coord    simnet.SiteID
	recs     []redolog.Record
	installs []versionInstall
	done     chan<- struct{}
}

// siteQueue is one master site's commit queue. enq/done count groups ever
// enqueued and ever flushed; barrier waits close the gap, which is
// airtight because groups are only enqueued under the partition locks the
// barrier's caller holds. leading marks the site's one leader; spare and
// recs are the leader's reusable buffers.
type siteQueue struct {
	site    simnet.SiteID
	mu      sync.Mutex
	cond    *sync.Cond // signalled whenever done advances
	pending []flushGroup
	enq     uint64
	done    uint64
	leading bool
	spare   []flushGroup
	recs    []redolog.Record
}

// groupCommit is the batched commit pipeline. Per-master-site queues
// coalesce concurrent transactions' redo records, and whichever committer
// finds a site without a leader leads it: it appends everything pending
// with one Broker.AppendBatch and installs the reserved versions, off the
// partition-lock critical path, while later committers follow. No
// goroutine of its own runs a flush.
type groupCommit struct {
	e      *Engine
	queues []*siteQueue

	recGroupSize *obs.Recorder // transactions coalesced per flush
	cntFlushes   *obs.Counter
	cntRecords   *obs.Counter // redo records flushed
}

func newGroupCommit(e *Engine) *groupCommit {
	g := &groupCommit{
		e:            e,
		recGroupSize: e.Obs.Recorder("commit.groupsize", 1<<10),
		cntFlushes:   e.Obs.Counter("commit.flushes"),
		cntRecords:   e.Obs.Counter("commit.flushed_records"),
	}
	for i := 0; i < len(e.Sites); i++ {
		q := &siteQueue{site: simnet.SiteID(i)}
		q.cond = sync.NewCond(&q.mu)
		g.queues = append(g.queues, q)
	}
	return g
}

// enqueue queues one site's flush group. The caller must hold the
// exclusive lock of every partition in the group and have passed the 2PC
// commit point, and must call lead for the site once its locks are
// released: the group flushes unconditionally, by the site's current
// leader or by the caller.
func (g *groupCommit) enqueue(site simnet.SiteID, fg flushGroup) {
	q := g.queues[site]
	q.mu.Lock()
	q.pending = append(q.pending, fg)
	q.enq++
	q.mu.Unlock()
}

// depth reports how many commit groups are queued at the site, feeding
// the admission controller's ClusterState snapshot. The pending slice
// itself cannot be bounded — groups are enqueued under partition locks
// past the 2PC commit point and must always flush — so backpressure is
// applied upstream: admission sheds new writes when this depth exceeds
// the configured backlog bound.
func (g *groupCommit) depth(site simnet.SiteID) int {
	q := g.queues[site]
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// lead makes the caller the site's leader unless it already has one. A
// leader flushes pending groups in FIFO order and gives up leadership only
// after seeing the queue empty under q.mu; with at most one leader per
// site, a partition's records reach the log in version order. A caller
// that finds a leader returns at once: that leader has yet to see the
// queue empty, so it will flush whatever the caller enqueued.
func (g *groupCommit) lead(site simnet.SiteID) {
	q := g.queues[site]
	q.mu.Lock()
	if !q.leading {
		g.drainLocked(q)
	}
	q.mu.Unlock()
}

// drainLocked is lead's body: q.mu is held on entry and exit, released
// around each flush.
func (g *groupCommit) drainLocked(q *siteQueue) {
	q.leading = true
	for len(q.pending) > 0 {
		batch := q.pending
		if len(batch) > defaultFlushBatch {
			batch = batch[:defaultFlushBatch:defaultFlushBatch]
			q.pending = append(q.spare[:0], q.pending[defaultFlushBatch:]...)
		} else {
			q.pending = q.spare[:0]
		}
		q.mu.Unlock()
		g.flush(q, batch)
		clear(batch)
		q.mu.Lock()
		q.spare = batch[:0]
	}
	q.leading = false
}

// barrier waits until every group enqueued to the site before the call has
// been flushed, leading the site itself when it has no leader. Callers
// hold the exclusive (or shared, for read-only captures) lock of the
// partition(s) they are about to act on, so no new group covering them
// can slip in behind the barrier; afterwards the partition's installed
// version, its store contents and the broker's end offset are mutually
// consistent. Failover uses it to drain a crashed site's queued commits
// into the log before promoting a replica.
func (g *groupCommit) barrier(site simnet.SiteID) {
	q := g.queues[site]
	q.mu.Lock()
	target := q.enq
	if !q.leading {
		g.drainLocked(q)
	}
	for q.done < target {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// flush makes one batch of commit groups durable: a single batched broker
// append, then the deferred version installs in enqueue order, then the
// waiter signals. The append must precede the installs — a replica
// CatchUp triggered by an installed version polls the broker for the
// record, so installing first would stall it until the poll deadline.
func (g *groupCommit) flush(q *siteQueue, batch []flushGroup) {
	recs := q.recs[:0]
	for _, fg := range batch {
		recs = append(recs, fg.recs...)
	}
	// Stable sort so each topic is locked once per flush while records of
	// one partition keep their enqueue (version) order.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Partition < recs[j].Partition })
	g.e.Broker.AppendBatch(recs)
	for _, fg := range batch {
		for _, in := range fg.installs {
			in.p.SetVersion(in.ver)
		}
	}
	// The barrier's contract — log, store contents and installed versions
	// mutually consistent — holds here, so release barrier waiters before
	// the decision-ack round trips below.
	q.mu.Lock()
	q.done += uint64(len(batch))
	q.cond.Broadcast()
	q.mu.Unlock()
	// The 2PC commit-decision round trips to remote coordinators ride on
	// the flush: one batched ack per distinct coordinator instead of one
	// per transaction. Past the commit point faults are absorbed (Charge).
	var acked []simnet.SiteID
	for _, fg := range batch {
		if fg.coord != q.site {
			seen := false
			for _, c := range acked {
				if c == fg.coord {
					seen = true
					break
				}
			}
			if !seen {
				acked = append(acked, fg.coord)
				g.e.Net.ChargeKind(simnet.KindDecision, fg.coord, q.site, 128)
				g.e.Net.ChargeKind(simnet.KindDecision, q.site, fg.coord, 32)
			}
		}
		fg.done <- struct{}{}
	}
	g.cntFlushes.Inc()
	g.cntRecords.Add(int64(len(recs)))
	g.recGroupSize.Record(time.Duration(len(batch))) // count, not ns
	clear(recs)
	q.recs = recs[:0]
}
