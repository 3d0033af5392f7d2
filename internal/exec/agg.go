package exec

import (
	"strconv"
	"time"

	"proteus/internal/cost"
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

func aggCols(inputCols []string, groupBy []int, cols []aggCol) []string {
	out := make([]string, 0, len(groupBy)+len(cols))
	for _, g := range groupBy {
		if g < len(inputCols) {
			out = append(out, inputCols[g])
		} else {
			out = append(out, "g"+strconv.Itoa(g))
		}
	}
	for _, c := range cols {
		out = append(out, c.fn.String())
	}
	return out
}

// HashAggregate groups tuples by the groupBy positions and computes the
// aggregates. An empty groupBy produces a single global group (even over
// zero input rows, matching SQL aggregate semantics).
func HashAggregate(r Rel, groupBy []int, specs []AggSpec) (Rel, cost.Observation) {
	start := time.Now()
	a := NewAggregator(groupBy, specs)
	for _, t := range r.Tuples {
		a.Observe(t)
	}
	out := a.Rel(r.Cols)
	obs := cost.Observation{
		Op:       cost.OpAggregate,
		Variant:  cost.AggHash,
		Features: cost.AggFeatures(r.NumRows(), out.NumRows(), r.RowBytes()),
		Latency:  time.Since(start),
	}
	return out, obs
}
