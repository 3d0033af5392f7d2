// Admission wiring: every client-visible operation passes through the
// engine's admission.Controller before it reaches the planner, and the
// controller's decisions read a periodically refreshed ClusterState
// snapshot instead of locking live engine state. OLTP work additionally
// registers per-site in-flight counters that the morsel feeders consult
// to cede scan-pool scheduling to commits (two priority classes at the
// execution layer, not just at the gate). A group-commit flush never
// passes through admission: a group enqueued past the 2PC commit point
// must always flush.
package cluster

import (
	"context"
	"time"

	"proteus/internal/admission"
	"proteus/internal/simnet"
)

// admit charges one client-visible operation to the context's tenant.
// A shed returns the typed *faults.OverloadError before any planning or
// execution happens — a shed write is never acknowledged because it was
// never started.
func (e *Engine) admit(ctx context.Context, pri admission.Priority) error {
	return e.Adm.Admit(ctx, admission.TenantFrom(ctx), pri)
}

// refreshAdmissionState rebuilds the admission controller's cluster
// snapshot: per-site up/down, memory footprint, group-commit backlog and
// OLTP in-flight counts. Reads are all lock-light accessors; the snapshot
// is installed atomically and read lock-free by the admission hot path.
func (e *Engine) refreshAdmissionState() {
	st := admission.ClusterState{
		At:    e.clk.Now(),
		Sites: make([]admission.SiteState, len(e.Sites)),
	}
	for i, s := range e.Sites {
		depth := e.gc.depth(s.ID)
		ss := admission.SiteState{
			ID:            i,
			Up:            !s.Down(),
			MemBytes:      s.MemUsage(),
			CommitBacklog: depth,
			OLTPInFlight:  int(e.oltpInFlight[i].Load()),
		}
		st.Sites[i] = ss
		if ss.Up && depth > st.MaxCommitBacklog {
			st.MaxCommitBacklog = depth
		}
	}
	e.Adm.UpdateState(st)
}

// startAdmissionRefresher runs the ClusterState refresh loop. Only the
// TokenBucket policy consults the snapshot, so AlwaysAdmit engines (the
// default) skip the loop entirely.
func (e *Engine) startAdmissionRefresher() {
	if e.Adm.Policy() != admission.TokenBucket {
		return
	}
	e.refreshAdmissionState() // decisions before the first tick see real state
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		t := e.clk.NewTicker(e.Adm.SnapshotInterval())
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				e.refreshAdmissionState()
			}
		}
	}()
}

// oltpEnter/oltpExit bracket one transaction's execution at its
// coordinating site; the site's morsel feeder checks the counter between
// units and briefly yields while commits are in flight.
func (e *Engine) oltpEnter(site simnet.SiteID) { e.oltpInFlight[int(site)].Add(1) }
func (e *Engine) oltpExit(site simnet.SiteID)  { e.oltpInFlight[int(site)].Add(-1) }

// scanYieldGrace bounds how long one morsel feeder step defers to
// in-flight OLTP work; small enough that a steady OLTP stream cannot
// starve analytical scans, large enough to cover a typical commit.
const scanYieldGrace = 200 * time.Microsecond

// yieldToOLTP parks the calling morsel feeder briefly while OLTP work is
// in flight at the site, ceding scheduling slots in the shared scan pool
// to transactional commits. The grace is bounded: after scanYieldGrace
// the feeder proceeds regardless.
func (e *Engine) yieldToOLTP(site simnet.SiteID) {
	if int(site) >= len(e.oltpInFlight) || e.oltpInFlight[int(site)].Load() == 0 {
		return
	}
	e.cntScanYields.Inc()
	deadline := e.clk.Now().Add(scanYieldGrace)
	for e.oltpInFlight[int(site)].Load() > 0 && e.clk.Now().Before(deadline) {
		e.clk.Sleep(scanYieldGrace / 4)
	}
}
