// Package exec implements Proteus' physical operators (§4.3, Table 1):
// storage-aware scans and point reads over partitions (with predicate and
// projection pushdown, sorted-range narrowing and zone-map skipping),
// writes, batch hash joins with runtime filters and their pipelined
// probes, and hash aggregation (one group-by table, on the hash join's key
// contract). Every operator measures its own latency and returns a
// cost.Observation so the ASA's cost functions learn continuously from
// real executions (§5.2.1).
package exec

import "proteus/internal/types"

// Rel is a materialized intermediate relation flowing between operators.
type Rel struct {
	// Cols labels the tuple positions (table.column names); purely
	// informational for debugging and result presentation.
	Cols []string
	// Tuples holds the rows.
	Tuples [][]types.Value
}

// NumRows reports the tuple count.
func (r Rel) NumRows() int { return len(r.Tuples) }

// RowBytes estimates the average encoded tuple width, used as the
// column-size cost feature.
func (r Rel) RowBytes() int {
	if len(r.Tuples) == 0 {
		return 0
	}
	n := 0
	sample := len(r.Tuples)
	if sample > 32 {
		sample = 32
	}
	for i := 0; i < sample; i++ {
		for _, v := range r.Tuples[i] {
			n += types.VarWidth(v)
		}
	}
	return n / sample
}
