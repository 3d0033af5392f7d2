package admission

import "time"

// ClusterState is a periodically refreshed snapshot of engine state used
// for admission decisions. The controller reads it lock-free via an
// atomic pointer; the engine's refresher goroutine replaces it wholesale.
// Decisions made on a snapshot a few milliseconds stale trade perfect
// accuracy for never contending on live engine locks from the admission
// hot path.
type ClusterState struct {
	// At stamps when the snapshot was taken.
	At time.Time
	// MaxCommitBacklog is the deepest group-commit queue across up sites;
	// the write-backlog shed guard compares against this.
	MaxCommitBacklog int
}

// UpdateState installs a fresh snapshot.
func (c *Controller) UpdateState(st ClusterState) {
	c.state.Store(&st)
	c.gaugeBacklog.Set(int64(st.MaxCommitBacklog))
}
