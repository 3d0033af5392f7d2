//go:build race

package replication

// raceEnabled reports a -race build, whose sync.Pool drops a share of what
// is put back: allocation budgets are not held there.
const raceEnabled = true
