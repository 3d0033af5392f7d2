package exec

import (
	"proteus/internal/partition"
	"proteus/internal/storage"
)

// DefaultMorselRows is the scheduling quantum of the parallel scan
// executor: each morsel covers roughly this many rows, small enough that
// work spreads evenly across a site's scan workers and a LIMIT or cancelled
// query stops quickly, large enough that per-morsel overhead — claiming the
// unit, emitting its batch, setting up the group-id window — stays noise.
// A worker scans a morsel as one batch of up to this many rows, unless its
// sink streams rows (DefaultBatchRows).
const DefaultMorselRows = 8192

// DefaultBatchRows bounds one batch of boxed rows flowing from a scan
// worker to a cursor, which bounds the streaming executor's in-flight
// memory and what a LIMIT boxes beyond its rows.
const DefaultBatchRows = 256

// LocalPred translates a predicate over table-global columns into a
// partition's local column space, keeping only the conjuncts the bounds
// cover. ok reports whether every conjunct was pushed.
func LocalPred(b partition.Bounds, pred storage.Pred) (storage.Pred, bool) {
	out := make(storage.Pred, 0, len(pred))
	all := true
	for _, c := range pred {
		if !b.ContainsCol(c.Col) {
			all = false
			continue
		}
		out = append(out, storage.Cond{Col: b.LocalCol(c.Col), Op: c.Op, Val: c.Val})
	}
	return out, all
}
