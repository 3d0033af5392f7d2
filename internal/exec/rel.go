// Package exec implements Proteus' physical operators (§4.3, Table 1):
// storage-aware scans and point reads over partitions (with predicate and
// projection pushdown, sorted-range narrowing and zone-map skipping),
// writes, hash/merge/nested-loop joins, sorting, and hash aggregation
// (one group-by table, on the hash join's key contract). Every operator measures its own latency and returns a
// cost.Observation so the ASA's cost functions learn continuously from
// real executions (§5.2.1).
package exec

import (
	"sort"

	"proteus/internal/types"
)

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

// Project returns a relation with only the given tuple positions.
func Project(r Rel, idxs []int) Rel {
	cols := make([]string, len(idxs))
	for i, ix := range idxs {
		if ix < len(r.Cols) {
			cols[i] = r.Cols[ix]
		}
	}
	out := Rel{Cols: cols, Tuples: make([][]types.Value, len(r.Tuples))}
	for ti, t := range r.Tuples {
		row := make([]types.Value, len(idxs))
		for i, ix := range idxs {
			row[i] = t[ix]
		}
		out.Tuples[ti] = row
	}
	return out
}

// Filter returns the tuples satisfying fn.
func Filter(r Rel, fn func([]types.Value) bool) Rel {
	out := Rel{Cols: r.Cols}
	for _, t := range r.Tuples {
		if fn(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// Concat unions relations with identical shapes (distributed partial
// results arriving at the coordinating site, §4.3).
func Concat(rels ...Rel) Rel {
	var out Rel
	for _, r := range rels {
		if out.Cols == nil {
			out.Cols = r.Cols
		}
		out.Tuples = append(out.Tuples, r.Tuples...)
	}
	return out
}

// SortBy orders tuples ascending by the given positions.
func SortBy(r Rel, keys []int) Rel {
	out := Rel{Cols: r.Cols, Tuples: append([][]types.Value(nil), r.Tuples...)}
	sort.SliceStable(out.Tuples, func(i, j int) bool {
		return compareKeys(out.Tuples[i], out.Tuples[j], keys, keys) < 0
	})
	return out
}

func compareKeys(a, b []types.Value, aKeys, bKeys []int) int {
	for i := range aKeys {
		if c := types.Compare(a[aKeys[i]], b[bKeys[i]]); c != 0 {
			return c
		}
	}
	return 0
}
