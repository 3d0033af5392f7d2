package exec

import "strconv"

// AggFunc enumerates the aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggSum AggFunc = iota
	AggCount
	AggMin
	AggMax
	AggAvg
	// AggCountCol counts the rows whose input column is not NULL:
	// COUNT(col), where AggCount is COUNT(*).
	AggCountCol
)

// String names the function.
func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggCount, AggCountCol:
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
	Col  int // ignored for AggCount, which counts every row
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
