// Crash, failover and recovery for the cluster engine. A site crash drops
// all of its in-memory partition state; the durable truth is the redo-log
// broker (checkpoint + retained records), mirroring the paper's use of
// Kafka as the replicated redo log. Failover promotes the surviving
// replica with the highest applied redo offset; recovery rebuilds every
// copy the site hosted by loading the partition checkpoint and replaying
// the log, then rejoins the old master as a replica where a failover
// already promoted someone else.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"proteus/internal/admission"
	"proteus/internal/faults"
	"proteus/internal/metadata"
	"proteus/internal/partition"
	"proteus/internal/simnet"
	"proteus/internal/site"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// maxRetryDelay caps the exponential backoff between operation retries.
const maxRetryDelay = 20 * time.Millisecond

// opDeadline bounds one client-visible operation (transaction or query)
// across all of its internal retries.
func (e *Engine) opDeadline() time.Duration {
	if e.cfg.OpDeadline > 0 {
		return e.cfg.OpDeadline
	}
	return 2 * time.Second
}

// retryBase is the first retry's maximum full-jitter delay.
func (e *Engine) retryBase() time.Duration {
	if e.cfg.RetryBase > 0 {
		return e.cfg.RetryBase
	}
	return 200 * time.Microsecond
}

// retriable reports whether an operation error may succeed on re-plan and
// retry: stale plans (concurrent layout change), dropped messages,
// partitions, and down sites (a failover or recovery may restore the
// copy before the deadline). Overload sheds are never retried here — the
// typed ErrOverload (with its RetryAfter hint) goes straight back to the
// client, which is the whole point of shedding.
func (e *Engine) retriable(err error) bool {
	return errors.Is(err, ErrStalePlan) || faults.Retryable(err)
}

// deadlineErr converts the last retry error into the typed timeout the
// caller observes, counting it.
func (e *Engine) deadlineErr(err error) error {
	e.cntTimeouts.Inc()
	if errors.Is(err, faults.ErrTimeout) {
		return err
	}
	return fmt.Errorf("%w: operation deadline exceeded (last error: %v)", faults.ErrTimeout, err)
}

// withRetries admits one client-visible operation at priority pri and runs
// attempt until it succeeds or fails for good. Retriable failures — a plan
// invalidated by a concurrent layout change, a crashed site awaiting
// failover, a dropped message or transient partition — re-run after seeded
// full-jitter backoff, doubling up to maxRetryDelay, until the deadline
// (the context's, if set, else the configured operation deadline), after
// which the typed faults.ErrTimeout surfaces. Cancelling ctx aborts
// between attempts. Admission happens once, before the loop: a shed is
// terminal (never internally retried) and retries ride on the
// already-granted token.
func (e *Engine) withRetries(ctx context.Context, pri admission.Priority, attempt func() error) error {
	if err := e.admit(ctx, pri); err != nil {
		return err
	}
	deadline := e.queryDeadline(ctx)
	delay := e.retryBase()
	for {
		err := attempt()
		if err == nil || !e.retriable(err) {
			return err
		}
		if e.clk.Now().After(deadline) {
			return e.deadlineErr(err)
		}
		e.cntRetries.Inc()
		if serr := e.sleepRetry(ctx, e.Faults.Jitter(delay)); serr != nil {
			return serr
		}
		if delay *= 2; delay > maxRetryDelay {
			delay = maxRetryDelay
		}
	}
}

// sendBackoff bounds one cross-site message retry loop. It is deliberately
// shorter than the operation deadline so a persistently-partitioned link
// surfaces as a retriable error and the operation can re-plan around it.
func (e *Engine) sendBackoff() faults.Backoff {
	return faults.Backoff{Base: e.retryBase(), Max: maxRetryDelay, Deadline: e.opDeadline() / 4}
}

// liveCopy picks a copy of the partition hosted by a live site, preferring
// the master. ok is false when every copy's site is down.
func (e *Engine) liveCopy(m *metadata.PartitionMeta) (metadata.Replica, bool) {
	master := m.Master()
	if int(master.Site) >= 0 && int(master.Site) < len(e.Sites) && !e.siteOf(master.Site).Down() {
		return master, true
	}
	for _, rep := range m.Replicas() {
		if !e.siteOf(rep.Site).Down() {
			return rep, true
		}
	}
	return metadata.Replica{}, false
}

// CrashSite fails a site: the interconnect rejects its traffic, its
// in-memory partition state is dropped, and every partition it mastered
// fails over to the freshest surviving replica. The copies it hosted are
// remembered for recovery replay.
func (e *Engine) CrashSite(id simnet.SiteID) error {
	if int(id) < 0 || int(id) >= len(e.Sites) {
		return fmt.Errorf("cluster: no site %d", id)
	}
	s := e.siteOf(id)
	e.Faults.SetSiteDown(id, true)
	hosted := s.Crash()
	if hosted == nil {
		return nil // already down
	}
	e.crashMu.Lock()
	e.crashed[id] = hosted
	e.crashMu.Unlock()
	e.cntCrashes.Inc()
	e.failoverSite(id)
	e.Epoch.Bump()
	return nil
}

// failoverSite removes the down site from every partition's replica set
// and promotes a new master for every partition it mastered.
func (e *Engine) failoverSite(down simnet.SiteID) {
	for _, m := range e.Dir.All() {
		m.RemoveReplica(down)
		if m.Master().Site == down {
			e.failoverPartition(m, down)
		}
	}
}

// failoverPartition promotes the surviving replica with the highest
// applied redo offset to master. Candidates are drained to the broker's
// end offset first so no committed record is lost; a candidate that
// cannot reach the broker (partitioned away) is skipped — promoting it
// could strand records it never saw. With no promotable candidate the
// partition stays unavailable (its committed state is safe in the
// broker) until the master recovers.
func (e *Engine) failoverPartition(m *metadata.PartitionMeta, down simnet.SiteID) {
	// Serialize with in-flight commits on this partition: a commit stages
	// and enqueues its redo records while holding the partition write
	// lock, so once we hold it every committed record is at worst sitting
	// in the down site's commit queue. Draining that queue through the
	// flush barrier puts them all in the broker before any candidate is
	// measured.
	ls := e.Locks.AcquireAll(nil, []partition.ID{m.ID})
	defer ls.ReleaseAll()
	if m.Master().Site != down {
		return // concurrent failover already promoted
	}
	e.gc.barrier(down)
	var best metadata.Replica
	var bestVersion uint64
	found := false
	for _, rep := range m.Replicas() {
		s := e.siteOf(rep.Site)
		if s.Down() {
			continue
		}
		v, err := s.Repl.Drain(m.ID)
		if err != nil {
			continue
		}
		if !found || v > bestVersion {
			best, bestVersion, found = rep, v, true
		}
	}
	if !found {
		return
	}
	dst := e.siteOf(best.Site)
	dst.Repl.Unsubscribe(m.ID)
	dst.SetMaster(m.ID, true)
	m.RemoveReplica(best.Site)
	m.SetMaster(metadata.Replica{Site: best.Site, Layout: best.Layout})
	e.cntFailovers.Inc()
}

// RecoverSite brings a crashed site back: every copy it hosted is rebuilt
// from the partition checkpoint plus redo-log replay. Where a failover
// promoted a replacement master while the site was down, the old master
// rejoins as a replica of the new one; where no replacement existed, it
// resumes mastership with all committed writes replayed.
func (e *Engine) RecoverSite(id simnet.SiteID) error {
	if int(id) < 0 || int(id) >= len(e.Sites) {
		return fmt.Errorf("cluster: no site %d", id)
	}
	s := e.siteOf(id)
	if !s.Down() {
		return nil
	}
	start := e.clk.Now()
	e.crashMu.Lock()
	hosted := e.crashed[id]
	delete(e.crashed, id)
	e.crashMu.Unlock()
	for _, hc := range hosted {
		m, ok := e.Dir.Get(hc.ID)
		if !ok {
			continue // partition split or merged away while the site was down
		}
		switch {
		case m.Master().Site == id:
			// No replica could take over; writes stalled while we were
			// down. Rebuild the master copy and resume.
			if err := e.rebuildCopy(s, m, hc.Layout, true); err != nil {
				return fmt.Errorf("recover site %d partition %d: %w", id, m.ID, err)
			}
		case !m.HasCopyAt(id):
			// A failover promoted a surviving replica; rejoin under it.
			if err := e.rebuildCopy(s, m, hc.Layout, false); err != nil {
				return fmt.Errorf("recover site %d partition %d: %w", id, m.ID, err)
			}
		}
	}
	s.Recover()
	e.Faults.SetSiteDown(id, false)
	e.cntRecoveries.Inc()
	e.recoveryLat.Record(e.clk.Since(start))
	e.Epoch.Bump()
	return nil
}

// rebuildCopy reconstructs one partition copy at a recovering site from
// durable state: load the broker's checkpoint (bulk-loaded base data plus
// the log prefix already folded in), then replay retained redo records
// above the checkpoint. Broker.Checkpoint hands out a row list of its own
// that matches the returned version and offset, so the maintenance tick may
// fold the image further while this copy loads. As master the copy just
// resumes; as replica it re-subscribes from the replay position.
func (e *Engine) rebuildCopy(s *site.Site, m *metadata.PartitionMeta, l storage.Layout, master bool) error {
	kinds, err := e.partitionKinds(m.Bounds)
	if err != nil {
		return err
	}
	p := partition.New(m.ID, m.Bounds, kinds, l, s.Factory)
	from := e.Broker.BaseOffset(m.ID)
	if ck, ok := e.Broker.Checkpoint(m.ID); ok {
		if err := p.Load(ck.Rows, ck.Version); err != nil {
			return err
		}
		from = ck.Offset
	}
	_, next, err := e.Broker.ReplayInto(p, m.ID, from)
	if err != nil {
		return err
	}
	s.AddPartition(p, master)
	if !master {
		s.Repl.Subscribe(m.ID, p, next)
		m.AddReplica(metadata.Replica{Site: s.ID, Layout: l})
	}
	return nil
}

// partitionKinds slices the table's column kinds down to the partition's
// column range.
func (e *Engine) partitionKinds(b partition.Bounds) ([]types.Kind, error) {
	tbl, ok := e.Catalog.Table(b.Table)
	if !ok {
		return nil, fmt.Errorf("cluster: no table %d", b.Table)
	}
	return tbl.Kinds()[b.ColStart:b.ColEnd], nil
}

// PartitionNet splits the interconnect into isolated groups (sites not
// listed stay reachable from every group).
func (e *Engine) PartitionNet(groups ...[]simnet.SiteID) { e.Faults.Partition(groups...) }

// HealNet removes any network partition.
func (e *Engine) HealNet() { e.Faults.Heal() }

// ApplyFault executes one chaos-schedule event.
func (e *Engine) ApplyFault(ev faults.Event) error {
	switch ev.Kind {
	case faults.EventCrash:
		return e.CrashSite(ev.Site)
	case faults.EventRecover:
		return e.RecoverSite(ev.Site)
	case faults.EventPartition:
		e.PartitionNet(ev.Groups...)
		return nil
	case faults.EventHeal:
		e.HealNet()
		return nil
	}
	return fmt.Errorf("cluster: unknown fault event %v", ev.Kind)
}
