package main

import (
	"fmt"

	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/types"
)

// The oracle answers a logical query tree by plain loops over extracted
// rows: predicate test per row, a map per join, a map per group. It shares
// nothing with the scan kernels, the batch join or the aggregators it
// checks except the value model (types.Compare through Pred.Match).

// oracleTables holds the rows a query may read, by table.
type oracleTables map[schema.TableID][]schema.Row

// evalOracle computes q's answer. The root must be an aggregation (every
// benchmark query is), so joined rows stream into the aggregate instead of
// being materialised.
func evalOracle(tabs oracleTables, q *query.Query) (*exec.Rel, error) {
	root, ok := q.Root.(*query.AggNode)
	if !ok {
		return nil, fmt.Errorf("oracle: root is %T, not an aggregation", q.Root)
	}
	if len(root.GroupBy) > 1 {
		return nil, fmt.Errorf("oracle: %d group-by columns (at most one supported)", len(root.GroupBy))
	}
	type state struct {
		key  types.Value
		sum  []float64
		n    []int64
		ext  []types.Value // MIN/MAX
		seen bool
	}
	newState := func(key types.Value) *state {
		return &state{key: key, sum: make([]float64, len(root.Aggs)), n: make([]int64, len(root.Aggs)), ext: make([]types.Value, len(root.Aggs))}
	}
	groups := map[types.Value]*state{}
	var order []*state
	err := feed(tabs, root.Child, func(t []types.Value) {
		var key types.Value
		if len(root.GroupBy) == 1 {
			key = t[root.GroupBy[0]]
		}
		st := groups[key]
		if st == nil {
			st = newState(key)
			groups[key] = st
			order = append(order, st)
		}
		for i, a := range root.Aggs {
			st.n[i]++
			if a.Func == exec.AggCount {
				continue
			}
			v := t[a.Col]
			st.sum[i] += v.Float()
			if !st.seen ||
				(a.Func == exec.AggMin && types.Compare(v, st.ext[i]) < 0) ||
				(a.Func == exec.AggMax && types.Compare(v, st.ext[i]) > 0) {
				st.ext[i] = v
			}
		}
		st.seen = true
	})
	if err != nil {
		return nil, err
	}
	out := &exec.Rel{}
	for _, st := range order {
		var row []types.Value
		if len(root.GroupBy) == 1 {
			row = append(row, st.key)
		}
		for i, a := range root.Aggs {
			switch a.Func {
			case exec.AggCount:
				row = append(row, types.NewInt64(st.n[i]))
			case exec.AggSum:
				row = append(row, types.NewFloat64(st.sum[i]))
			case exec.AggAvg:
				row = append(row, types.NewFloat64(st.sum[i]/float64(st.n[i])))
			default:
				row = append(row, st.ext[i])
			}
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// feed pushes every output tuple of a scan or join subtree into emit. The
// slice passed to emit is reused; emit must not keep it.
func feed(tabs oracleTables, n query.Node, emit func([]types.Value)) error {
	switch v := n.(type) {
	case *query.ScanNode:
		rows, ok := tabs[v.Table]
		if !ok {
			return fmt.Errorf("oracle: table %d not extracted", v.Table)
		}
		buf := make([]types.Value, len(v.Cols))
		for i := range rows {
			if !v.Pred.Match(rows[i].Vals) {
				continue
			}
			for j, c := range v.Cols {
				buf[j] = rows[i].Vals[c]
			}
			emit(buf)
		}
		return nil
	case *query.JoinNode:
		// Materialise the right side keyed by its join column, then stream
		// the left side through it.
		var right [][]types.Value
		byKey := map[int64][]int32{}
		var kerr error
		if err := feed(tabs, v.Right, func(t []types.Value) {
			k := t[v.RightKeyCol]
			if k.K != types.KindInt64 && k.K != types.KindTime {
				kerr = fmt.Errorf("oracle: join key of kind %s", k.K)
				return
			}
			byKey[k.I] = append(byKey[k.I], int32(len(right)))
			right = append(right, append([]types.Value(nil), t...))
		}); err != nil {
			return err
		}
		if kerr != nil {
			return kerr
		}
		var buf []types.Value
		return feed(tabs, v.Left, func(t []types.Value) {
			for _, ri := range byKey[t[v.LeftKeyCol].I] {
				buf = append(append(buf[:0], t...), right[ri]...)
				emit(buf)
			}
		})
	}
	return fmt.Errorf("oracle: unsupported node %T below the aggregation", n)
}
