package exec

import (
	"proteus/internal/partition"
	"proteus/internal/storage"
)

// DefaultMorselRows is the scheduling quantum of the parallel scan
// executor: each morsel covers roughly this many rows, small enough that
// work spreads evenly across a site's scan workers and a LIMIT or cancelled
// query stops quickly, large enough that per-morsel overhead stays noise.
const DefaultMorselRows = 1024

// DefaultBatchRows bounds one result batch flowing from a scan worker to
// the coordinator, which bounds the executor's in-flight memory.
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
