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
// internal/exec's row operators — a predicate filter, exec.HashJoin and
// exec.HashAggregate — with no partitions, layouts, sites or morsels.
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
		out, _ := exec.HashAggregate(refEval(v.Child, tables), v.GroupBy, v.Aggs)
		return out
	}
	panic(fmt.Sprintf("refEval: unknown node %T", n))
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
