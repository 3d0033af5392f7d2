package sqlparse

import (
	"testing"

	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

func catalog(t *testing.T) *schema.Catalog {
	t.Helper()
	cat := schema.NewCatalog()
	if _, err := cat.Create("orders", []schema.Column{
		{Name: "order_id", Kind: types.KindInt64},
		{Name: "item_id", Kind: types.KindInt64},
		{Name: "amount", Kind: types.KindFloat64},
		{Name: "note", Kind: types.KindString},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Create("item", []schema.Column{
		{Name: "i_id", Kind: types.KindInt64},
		{Name: "i_price", Kind: types.KindFloat64},
	}); err != nil {
		t.Fatal(err)
	}
	return cat
}

func parseQuery(t *testing.T, sql string) *query.Query {
	t.Helper()
	req, err := Parse(catalog(t), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if req.Query == nil {
		t.Fatalf("%s: not a query", sql)
	}
	return req.Query
}

// TestCountColumnIsCountCol: COUNT(col) counts a column's non-NULL
// inputs (exec.AggCountCol), COUNT(*) every row (exec.AggCount).
func TestCountColumnIsCountCol(t *testing.T) {
	agg := parseQuery(t, "SELECT COUNT(amount), COUNT(*) FROM orders").Root.(*query.AggNode)
	if len(agg.Aggs) != 2 || agg.Aggs[0].Func != exec.AggCountCol || agg.Aggs[1].Func != exec.AggCount {
		t.Errorf("aggs = %v", agg.Aggs)
	}
}

func TestSelectScanAggregate(t *testing.T) {
	q := parseQuery(t, "SELECT SUM(amount), COUNT(*) FROM orders WHERE amount >= 10 AND note = 'x'")
	agg, ok := q.Root.(*query.AggNode)
	if !ok {
		t.Fatalf("root = %T", q.Root)
	}
	if len(agg.Aggs) != 2 || agg.Aggs[0].Func != exec.AggSum || agg.Aggs[1].Func != exec.AggCount {
		t.Errorf("aggs = %v", agg.Aggs)
	}
	scan := agg.Child.(*query.ScanNode)
	if len(scan.Pred) != 2 {
		t.Fatalf("pred = %v", scan.Pred)
	}
	if scan.Pred[0].Op != storage.CmpGe || scan.Pred[0].Val.Float() != 10 {
		t.Errorf("pred[0] = %+v", scan.Pred[0])
	}
	if scan.Pred[1].Val.Str() != "x" {
		t.Errorf("pred[1] = %+v", scan.Pred[1])
	}
}

func TestSelectGroupBy(t *testing.T) {
	q := parseQuery(t, "SELECT item_id, AVG(amount) FROM orders GROUP BY item_id")
	agg := q.Root.(*query.AggNode)
	if len(agg.GroupBy) != 1 || len(agg.Aggs) != 1 || agg.Aggs[0].Func != exec.AggAvg {
		t.Errorf("agg = %+v", agg)
	}
}

func TestSelectJoin(t *testing.T) {
	q := parseQuery(t, "SELECT SUM(amount) FROM orders JOIN item ON item_id = i_id WHERE i_price < 50")
	agg := q.Root.(*query.AggNode)
	join, ok := agg.Child.(*query.JoinNode)
	if !ok {
		t.Fatalf("child = %T", agg.Child)
	}
	ls := join.Left.(*query.ScanNode)
	rs := join.Right.(*query.ScanNode)
	if ls.Table != 0 || rs.Table != 1 {
		t.Errorf("tables = %d, %d", ls.Table, rs.Table)
	}
	// Predicate on i_price lands on the item scan.
	if len(rs.Pred) != 1 || len(ls.Pred) != 0 {
		t.Errorf("pred split: left=%v right=%v", ls.Pred, rs.Pred)
	}
	// Join keys index each side's output columns.
	if join.LeftKeyCol >= len(ls.Cols) || join.RightKeyCol >= len(rs.Cols) {
		t.Errorf("keys out of range: %d/%d", join.LeftKeyCol, join.RightKeyCol)
	}
}

func TestInsert(t *testing.T) {
	cat := catalog(t)
	req, err := Parse(cat, "INSERT INTO orders VALUES (42, 7, 3, 19.5, 'hello world')")
	if err != nil {
		t.Fatal(err)
	}
	op := req.Txn.Ops[0]
	if op.Kind != query.OpInsert || op.Row != 42 || len(op.Vals) != 4 {
		t.Fatalf("op = %+v", op)
	}
	if op.Vals[2].Float() != 19.5 || op.Vals[3].Str() != "hello world" {
		t.Errorf("vals = %v", op.Vals)
	}
}

func TestUpdateDelete(t *testing.T) {
	cat := catalog(t)
	req, err := Parse(cat, "UPDATE orders SET amount = 5.5, note = 'paid' WHERE id = 9")
	if err != nil {
		t.Fatal(err)
	}
	op := req.Txn.Ops[0]
	if op.Kind != query.OpUpdate || op.Row != 9 || len(op.Cols) != 2 {
		t.Fatalf("op = %+v", op)
	}
	req, err = Parse(cat, "DELETE FROM orders WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if op := req.Txn.Ops[0]; op.Kind != query.OpDelete || op.Row != 3 {
		t.Fatalf("op = %+v", op)
	}
}

func TestParseErrors(t *testing.T) {
	cat := catalog(t)
	bad := []string{
		"",
		"DROP TABLE orders",
		"SELECT FROM orders",
		"SELECT amount FROM nope",
		"SELECT missing FROM orders",
		"SELECT amount FROM orders", // bare column without GROUP BY is fine? no agg -> plain scan
		"INSERT INTO orders VALUES (1, 2)",
		"UPDATE orders SET nope = 1 WHERE id = 1",
		"UPDATE orders SET amount = 1 WHERE order_id = 1",
		"SELECT SUM(amount FROM orders",
		"SELECT SUM(*) FROM orders",
		"SELECT COUNT(*) FROM orders WHERE note = 'unterminated",
	}
	for _, sql := range bad {
		if sql == "SELECT amount FROM orders" {
			// Plain projections parse fine.
			if _, err := Parse(cat, sql); err != nil {
				t.Errorf("%q should parse: %v", sql, err)
			}
			continue
		}
		if _, err := Parse(cat, sql); err == nil {
			t.Errorf("%q parsed without error", sql)
		}
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	cat := catalog(t)
	if _, err := Parse(cat, "select count(*) from orders where amount > 1"); err != nil {
		t.Errorf("lowercase failed: %v", err)
	}
}

func TestQualifiedColumns(t *testing.T) {
	q := parseQuery(t, "SELECT COUNT(*) FROM orders JOIN item ON orders.item_id = item.i_id")
	agg := q.Root.(*query.AggNode)
	if _, ok := agg.Child.(*query.JoinNode); !ok {
		t.Fatalf("child = %T", agg.Child)
	}
}
