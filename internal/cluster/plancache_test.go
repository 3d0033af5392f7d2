package cluster_test

// Regression test for the plan cache returning another query's answer
// (ROADMAP item 1(a)): the cache used to key on query shape alone, and the
// cached physical scan carries the predicate it was planned with, so the
// second of two same-shape queries with different constants silently got
// the first one's rows. External test package: the CH workload imports
// cluster.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
	"proteus/internal/workload/chbench"
)

// scanAll reads whole columns of a table through a predicate-free scan.
func scanAll(t *testing.T, e *cluster.Engine, tbl *schema.Table, cols ...schema.ColID) [][]types.Value {
	t.Helper()
	rel, err := e.ExecuteQuery(context.Background(), e.NewSession(),
		&query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: cols}})
	if err != nil {
		t.Fatal(err)
	}
	return rel.Tuples
}

func inBand(v types.Value, pred storage.Pred) bool {
	for _, c := range pred {
		if !c.Op.Eval(v, c.Val) {
			return false
		}
	}
	return true
}

// TestPlanCacheSameShapeDifferentConstants runs CH q19 with two price
// bands, and one scan-aggregate shape with two ranges, back to back on one
// engine, and checks every answer against plain loops over the tables'
// rows. The two constants of each shape must give different answers (or the
// test proves nothing) and each must be its own.
func TestPlanCacheSameShapeDifferentConstants(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Mode = cluster.ModeColumnStore
	cfg.NumSites = 2
	cfg.Net = simnet.Config{}
	e := cluster.New(cfg)
	t.Cleanup(e.Close)
	cc := chbench.DefaultConfig()
	cc.Warehouses, cc.DistrictsPerW, cc.Items, cc.LoadedOrdersPerDistrict = 2, 2, 100, 60
	w, err := chbench.Setup(e, cc)
	if err != nil {
		t.Fatal(err)
	}
	tabs := w.Tables()
	items := scanAll(t, e, tabs.Item, 0, 2)            // i_id, price
	lines := scanAll(t, e, tabs.OrderLine, 2, 3, 4)    // ol_i_id, quantity, amount
	near := func(got types.Value, want float64) bool { // float sums differ by merge order
		return math.Abs(got.Float()-want) <= 1e-9*math.Max(1, math.Abs(want))
	}

	// q19: SUM(amount) over orderline ⋈ item with the item's price in a
	// seed-drawn band and the line's quantity in [1,10].
	rng := rand.New(rand.NewSource(1))
	var answers []float64
	for len(answers) < 2 {
		q := w.Query(7, rng)
		join := q.Root.(*query.AggNode).Child.(*query.JoinNode)
		linePred, itemPred := join.Left.(*query.ScanNode).Pred, join.Right.(*query.ScanNode).Pred
		priced := map[int64]bool{}
		for _, it := range items {
			if inBand(it[1], itemPred) {
				priced[it[0].Int()] = true
			}
		}
		want := 0.0
		for _, l := range lines {
			if priced[l[0].Int()] && inBand(l[1], linePred) {
				want += l[2].Float()
			}
		}
		got, err := e.ExecuteQuery(context.Background(), e.NewSession(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Tuples) != 1 || !near(got.Tuples[0][0], want) {
			t.Errorf("q19 with price band from %v: got %v, plain loop gives %v", itemPred[0].Val, got.Tuples, want)
		}
		if len(answers) == 1 && want == answers[0] {
			continue // a band with the same answer cannot tell plans apart
		}
		answers = append(answers, want)
	}

	// One scan shape, two ranges: COUNT and SUM(amount) of lines with
	// quantity below a bound.
	var counts []int64
	for _, bound := range []float64{3, 8} {
		var n int64
		want := 0.0
		for _, l := range lines {
			if l[1].Float() < bound {
				n++
				want += l[2].Float()
			}
		}
		got, err := e.ExecuteQuery(context.Background(), e.NewSession(), &query.Query{Root: &query.AggNode{
			Child: &query.ScanNode{Table: tabs.OrderLine.ID, Cols: []schema.ColID{4},
				Pred: storage.Pred{{Col: 3, Op: storage.CmpLt, Val: types.NewFloat64(bound)}}},
			Aggs: []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggSum, Col: 0}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Tuples) != 1 || got.Tuples[0][0].Int() != n || !near(got.Tuples[0][1], want) {
			t.Errorf("lines with quantity < %v: got %v, plain loop gives [%d %v]", bound, got.Tuples, n, want)
		}
		counts = append(counts, n)
	}
	if counts[0] == counts[1] {
		t.Fatalf("fixture: both quantity ranges select %d lines", counts[0])
	}
}
