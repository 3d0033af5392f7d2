package exec

import (
	"fmt"
	"time"

	"proteus/internal/cost"
	"proteus/internal/types"
)

// AggFunc enumerates the aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggSum AggFunc = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

// String names the function.
func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	}
	return "?"
}

// AggSpec is one aggregate over a tuple position.
type AggSpec struct {
	Func AggFunc
	Col  int // ignored for COUNT
}

// aggState accumulates one group's aggregates.
type aggState struct {
	sums   []types.Value
	counts []int64
	mins   []types.Value
	maxs   []types.Value
}

// newAggState carves the three value accumulators out of one array: a
// pipelined join-aggregate holds one state per group per scan worker, so
// allocations per state are what a many-group query's allocation count is
// made of.
func newAggState(n int) *aggState {
	vals := make([]types.Value, 3*n)
	return &aggState{
		sums:   vals[:n:n],
		counts: make([]int64, n),
		mins:   vals[n : 2*n : 2*n],
		maxs:   vals[2*n:],
	}
}

func (s *aggState) observe(t []types.Value, specs []AggSpec) {
	for i, sp := range specs {
		s.counts[i]++
		if sp.Func == AggCount {
			continue
		}
		s.observeVal(i, t[sp.Col])
	}
}

// observeVal folds one non-COUNT aggregate input value into slot i.
func (s *aggState) observeVal(i int, v types.Value) {
	s.sums[i] = types.Add(s.sums[i], v)
	if s.mins[i].IsNull() || types.Compare(v, s.mins[i]) < 0 {
		s.mins[i] = v
	}
	if s.maxs[i].IsNull() || types.Compare(v, s.maxs[i]) > 0 {
		s.maxs[i] = v
	}
}

func (s *aggState) finish(specs []AggSpec) []types.Value {
	out := make([]types.Value, len(specs))
	for i, sp := range specs {
		switch sp.Func {
		case AggSum:
			out[i] = s.sums[i]
		case AggCount:
			out[i] = types.NewInt64(s.counts[i])
		case AggMin:
			out[i] = s.mins[i]
		case AggMax:
			out[i] = s.maxs[i]
		case AggAvg:
			if s.counts[i] > 0 {
				out[i] = types.NewFloat64(s.sums[i].Float() / float64(s.counts[i]))
			}
		}
	}
	return out
}

func aggCols(r Rel, groupBy []int, specs []AggSpec) []string {
	cols := make([]string, 0, len(groupBy)+len(specs))
	for _, g := range groupBy {
		if g < len(r.Cols) {
			cols = append(cols, r.Cols[g])
		} else {
			cols = append(cols, fmt.Sprintf("g%d", g))
		}
	}
	for _, sp := range specs {
		cols = append(cols, sp.Func.String())
	}
	return cols
}

// HashAggregate groups tuples by the groupBy positions and computes the
// aggregates. An empty groupBy produces a single global group (even over
// zero input rows, matching SQL aggregate semantics).
func HashAggregate(r Rel, groupBy []int, specs []AggSpec) (Rel, cost.Observation) {
	start := time.Now()
	groups := map[uint64][]*groupEntry{}
	var order []*groupEntry
	for _, t := range r.Tuples {
		h := joinKey(t, groupBy)
		var ge *groupEntry
		for _, cand := range groups[h] {
			if keysEqual(t, cand.key, groupBy, groupBy) {
				ge = cand
				break
			}
		}
		if ge == nil {
			key := make([]types.Value, len(t))
			copy(key, t)
			ge = &groupEntry{key: key, state: newAggState(len(specs))}
			groups[h] = append(groups[h], ge)
			order = append(order, ge)
		}
		ge.state.observe(t, specs)
	}
	if len(groupBy) == 0 && len(order) == 0 {
		order = append(order, &groupEntry{key: nil, state: newAggState(len(specs))})
	}
	out := Rel{Cols: aggCols(r, groupBy, specs)}
	for _, ge := range order {
		row := make([]types.Value, 0, len(groupBy)+len(specs))
		for _, g := range groupBy {
			row = append(row, ge.key[g])
		}
		row = append(row, ge.state.finish(specs)...)
		out.Tuples = append(out.Tuples, row)
	}
	obs := cost.Observation{
		Op:       cost.OpAggregate,
		Variant:  cost.AggHash,
		Features: cost.AggFeatures(r.NumRows(), out.NumRows(), r.RowBytes()),
		Latency:  time.Since(start),
	}
	return out, obs
}

type groupEntry struct {
	key   []types.Value
	state *aggState
}

// SortedAggregate aggregates input already sorted by the groupBy positions
// in one streaming pass (the sort-aggregate variant of Table 1).
func SortedAggregate(r Rel, groupBy []int, specs []AggSpec) (Rel, cost.Observation) {
	start := time.Now()
	out := Rel{Cols: aggCols(r, groupBy, specs)}
	var curKey []types.Value
	var state *aggState
	flush := func() {
		if state == nil {
			return
		}
		row := make([]types.Value, 0, len(groupBy)+len(specs))
		for _, g := range groupBy {
			row = append(row, curKey[g])
		}
		row = append(row, state.finish(specs)...)
		out.Tuples = append(out.Tuples, row)
	}
	for _, t := range r.Tuples {
		if state == nil || !keysEqual(t, curKey, groupBy, groupBy) {
			flush()
			curKey = append([]types.Value(nil), t...)
			state = newAggState(len(specs))
		}
		state.observe(t, specs)
	}
	flush()
	if len(groupBy) == 0 && len(out.Tuples) == 0 {
		out.Tuples = append(out.Tuples, newAggState(len(specs)).finish(specs))
	}
	obs := cost.Observation{
		Op:       cost.OpAggregate,
		Variant:  cost.AggSort,
		Features: cost.AggFeatures(r.NumRows(), out.NumRows(), r.RowBytes()),
		Latency:  time.Since(start),
	}
	return out, obs
}

// Sort orders tuples by the key positions, reporting the sort cost.
func Sort(r Rel, keys []int) (Rel, cost.Observation) {
	start := time.Now()
	out := SortBy(r, keys)
	obs := cost.Observation{
		Op:       cost.OpSort,
		Features: cost.SortFeatures(r.NumRows(), r.RowBytes()),
		Latency:  time.Since(start),
	}
	return out, obs
}
