package cluster

import (
	"context"
	"fmt"
	"testing"

	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// refTables maps each table of a fixture to every row loaded into it, values
// in table-global column order.
type refTables map[schema.TableID][]schema.Row

// refEval is the reference evaluator the executor's differential suites
// are held to: the query tree run over the fixture's generated rows with
// a predicate filter, internal/exec's row join (exec.HashJoin) and a row
// aggregate of its own (refAggregate) — no partitions, layouts, sites or
// morsels, and no group-by table.
func refEval(n query.Node, tables refTables) exec.Rel {
	switch v := n.(type) {
	case *query.ScanNode:
		var out exec.Rel
		for _, r := range tables[v.Table] {
			if !v.Pred.Match(r.Vals) {
				continue
			}
			t := make([]types.Value, len(v.Cols))
			for i, c := range v.Cols {
				t[i] = r.Vals[c]
			}
			out.Tuples = append(out.Tuples, t)
		}
		return out
	case *query.JoinNode:
		out, _ := exec.HashJoin(refEval(v.Left, tables), refEval(v.Right, tables), []int{v.LeftKeyCol}, []int{v.RightKeyCol})
		return out
	case *query.AggNode:
		return refAggregate(refEval(v.Child, tables), v.GroupBy, v.Aggs)
	}
	panic(fmt.Sprintf("refEval: unknown node %T", n))
}

// refAggregate groups r by the groupBy positions with a linear scan over
// the groups so far, keys compared with types.Equal and never hashed, each
// group labelled by its first row's key. MIN and MAX skip NULL inputs;
// COUNT, and AVG's denominator, count every row, as the engine does. An
// ungrouped aggregate has one row even over no input.
func refAggregate(r exec.Rel, groupBy []int, specs []exec.AggSpec) exec.Rel {
	type group struct {
		key  []types.Value
		acc  []types.Value
		rows int64
	}
	var groups []*group
	find := func(t []types.Value) *group {
	next:
		for _, g := range groups {
			for k, c := range groupBy {
				if !types.Equal(g.key[k], t[c]) {
					continue next
				}
			}
			return g
		}
		g := &group{acc: make([]types.Value, len(specs))}
		for _, c := range groupBy {
			g.key = append(g.key, t[c])
		}
		groups = append(groups, g)
		return g
	}
	if len(groupBy) == 0 {
		find(nil)
	}
	for _, t := range r.Tuples {
		g := find(t)
		g.rows++
		for i, sp := range specs {
			if sp.Func == exec.AggCount || t[sp.Col].IsNull() {
				continue
			}
			v, cur := t[sp.Col], g.acc[i]
			switch sp.Func {
			case exec.AggMin:
				if cur.IsNull() || types.Compare(v, cur) < 0 {
					g.acc[i] = v
				}
			case exec.AggMax:
				if cur.IsNull() || types.Compare(v, cur) > 0 {
					g.acc[i] = v
				}
			default:
				g.acc[i] = types.Add(cur, v)
			}
		}
	}
	var out exec.Rel
	for _, g := range groups {
		row := append([]types.Value(nil), g.key...)
		for i, sp := range specs {
			switch {
			case sp.Func == exec.AggCount:
				row = append(row, types.NewInt64(g.rows))
			case sp.Func == exec.AggAvg && g.rows > 0:
				row = append(row, types.NewFloat64(g.acc[i].Float()/float64(g.rows)))
			default:
				row = append(row, g.acc[i])
			}
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out
}

// streamSorted drains q through ExecuteQueryStream and sorts the rows.
func streamSorted(t *testing.T, e *Engine, q *query.Query) exec.Rel {
	t.Helper()
	cur, err := e.ExecuteQueryStream(context.Background(), e.NewSession(), q)
	if err != nil {
		t.Fatal(err)
	}
	got := exec.Rel{Cols: cur.Cols()}
	for cur.Next() {
		got.Tuples = append(got.Tuples, append([]types.Value(nil), cur.Row()...))
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	sortTuples(got)
	return got
}

// checkRef requires q's answer, materialized and streamed, to equal the
// reference evaluator's.
func checkRef(t *testing.T, e *Engine, name string, q *query.Query, tables refTables) {
	t.Helper()
	want := refEval(q.Root, tables)
	sortTuples(want)
	sameRels(t, name, runSorted(t, e, q), want)
	sameRels(t, name+" (streamed)", streamSorted(t, e, q), want)
}

// splitVertically splits every partition of tbl at column at — row layout
// left, column layout right — and moves each right piece to the next site,
// so a scan spanning the cut stitches pieces read on two sites.
func splitVertically(t *testing.T, e *Engine, tbl *schema.Table, at schema.ColID) {
	t.Helper()
	for _, m := range e.Dir.TablePartitions(tbl.ID) {
		if err := e.SplitV(m.ID, at, storage.DefaultRowLayout(), storage.DefaultColumnLayout()); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range e.Dir.TablePartitions(tbl.ID) {
		if m.Bounds.ColStart != at {
			continue
		}
		from := m.Master().Site
		to := simnet.SiteID((int(from) + 1) % len(e.Sites))
		if err := e.AddReplicaOp(m.ID, to, m.Master().Layout); err != nil {
			t.Fatal(err)
		}
		if err := e.ChangeMasterOp(m.ID, to); err != nil {
			t.Fatal(err)
		}
		if err := e.RemoveReplicaOp(m.ID, from); err != nil {
			t.Fatal(err)
		}
	}
}
