//go:build race

package cluster

// raceEnabled reports a -race build, whose instrumentation allocates:
// allocation budgets are not held there.
const raceEnabled = true
