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

// defaultFlushBatch bounds how many commit groups one flush cycle drains
// when Config.GroupCommitMaxBatch is unset.
const defaultFlushBatch = 256

// versionInstall is one deferred SetVersion the flusher performs after the
// batched append makes the record durable.
type versionInstall struct {
	p   *partition.Partition
	ver uint64
}

// flushGroup is one transaction's contribution to one master site's flush:
// the redo records for every partition the transaction wrote at that site,
// the deferred version installs, and the channel the commit waiter blocks
// on. done is buffered by the enqueuer so the flusher never blocks
// signalling completion.
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
// barrier's caller holds.
type siteQueue struct {
	site    simnet.SiteID
	mu      sync.Mutex
	cond    *sync.Cond
	pending []flushGroup
	enq     uint64
	done    uint64
	kickAt  uint64 // flush without lingering until done reaches this
	closed  bool
}

// groupCommit runs the batched commit pipeline: per-master-site queues
// coalesce concurrent transactions' redo records, and one flusher per site
// appends them with a single Broker.AppendBatch and installs the reserved
// versions, off the partition-lock critical path.
type groupCommit struct {
	e        *Engine
	maxBatch int
	interval time.Duration
	queues   []*siteQueue
	wg       sync.WaitGroup

	recGroupSize *obs.Recorder // transactions coalesced per flush
	cntFlushes   *obs.Counter
	cntRecords   *obs.Counter // redo records flushed
}

func newGroupCommit(e *Engine) *groupCommit {
	g := &groupCommit{
		e:            e,
		maxBatch:     e.cfg.GroupCommitMaxBatch,
		interval:     e.cfg.GroupCommitInterval,
		recGroupSize: e.Obs.Recorder("commit.groupsize", 1<<10),
		cntFlushes:   e.Obs.Counter("commit.flushes"),
		cntRecords:   e.Obs.Counter("commit.flushed_records"),
	}
	if g.maxBatch <= 0 {
		g.maxBatch = defaultFlushBatch
	}
	for i := 0; i < len(e.Sites); i++ {
		q := &siteQueue{site: simnet.SiteID(i)}
		q.cond = sync.NewCond(&q.mu)
		g.queues = append(g.queues, q)
	}
	for _, q := range g.queues {
		g.wg.Add(1)
		go g.run(q)
	}
	return g
}

// enqueue hands one site's flush group to its flusher. The caller must
// hold the exclusive lock of every partition in the group and have passed
// the 2PC commit point: the group will be flushed unconditionally.
func (g *groupCommit) enqueue(site simnet.SiteID, fg flushGroup) {
	q := g.queues[site]
	q.mu.Lock()
	if q.closed {
		// Shutdown: wait out the draining flusher first, so this group's
		// records cannot pass an earlier pending group's for the same
		// partition in the log, then flush inline (counted=false: this
		// group was never enqueued, so it must not advance done).
		for q.done < q.enq {
			q.cond.Wait()
		}
		q.mu.Unlock()
		g.flush(q, []flushGroup{fg}, false)
		return
	}
	q.pending = append(q.pending, fg)
	q.enq++
	q.cond.Broadcast()
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

// barrier waits until every group enqueued to the site before the call has
// been flushed. Callers hold the exclusive (or shared, for read-only
// captures) lock of the partition(s) they are about to act on, so no new
// group covering them can slip in behind the barrier; afterwards the
// partition's installed version, its store contents and the broker's end
// offset are mutually consistent. Failover uses it to drain a crashed
// site's queued commits into the log before promoting a replica.
func (g *groupCommit) barrier(site simnet.SiteID) {
	q := g.queues[site]
	q.mu.Lock()
	target := q.enq
	if q.kickAt < target {
		q.kickAt = target
	}
	q.cond.Broadcast()
	for q.done < target {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// close drains every queue and stops the flushers. Groups enqueued after
// close are flushed inline by the enqueuer.
func (g *groupCommit) close() {
	for _, q := range g.queues {
		q.mu.Lock()
		q.closed = true
		q.cond.Broadcast()
		q.mu.Unlock()
	}
	g.wg.Wait()
}

// run is one site's flusher loop.
func (g *groupCommit) run(q *siteQueue) {
	defer g.wg.Done()
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.pending) == 0 {
			q.mu.Unlock()
			return // closed and drained
		}
		// Optional coalescing window: with a configured interval the
		// flusher lingers for more arrivals; by default it drains whatever
		// is pending immediately, so batching emerges only under
		// concurrent load and an uncontended commit pays no added latency.
		if g.interval > 0 && q.kickAt <= q.done && !q.closed && len(q.pending) < g.maxBatch {
			// Timer-driven linger: sleep on the cond until an arrival,
			// barrier kick, close or the window timer wakes us — no
			// quarter-interval polling. Every state change Broadcasts, and
			// the timer callback flips expired under the queue lock.
			expired := false
			tm := g.e.clk.AfterFunc(g.interval, func() {
				q.mu.Lock()
				expired = true
				q.cond.Broadcast()
				q.mu.Unlock()
			})
			for !expired && q.kickAt <= q.done && !q.closed && len(q.pending) < g.maxBatch {
				q.cond.Wait()
			}
			tm.Stop()
		}
		batch := q.pending
		if len(batch) > g.maxBatch {
			batch = batch[:g.maxBatch:g.maxBatch]
			q.pending = append([]flushGroup(nil), q.pending[g.maxBatch:]...)
		} else {
			q.pending = nil
		}
		q.mu.Unlock()

		g.flush(q, batch, true)
	}
}

// flush makes one batch of commit groups durable: a single batched broker
// append, then the deferred version installs in enqueue order, then the
// waiter signals. The append must precede the installs — a replica
// CatchUp triggered by an installed version polls the broker for the
// record, so installing first would stall it until the poll deadline.
// counted marks batches drained from the queue by the flusher, whose
// groups advance q.done (inline post-close flushes were never enqueued).
func (g *groupCommit) flush(q *siteQueue, batch []flushGroup, counted bool) {
	if len(batch) == 0 {
		return
	}
	n := 0
	for _, fg := range batch {
		n += len(fg.recs)
	}
	recs := make([]redolog.Record, 0, n)
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
	// the decision-ack round trips below: those model client-visible
	// latency only, and a checkpoint or failover holding partition locks
	// must not stall behind them.
	if counted {
		q.mu.Lock()
		q.done += uint64(len(batch))
		q.cond.Broadcast()
		q.mu.Unlock()
	}
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
}
