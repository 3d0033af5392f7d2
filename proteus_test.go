package proteus

import (
	"context"
	"testing"
)

func openTest(t *testing.T) (*DB, *Table) {
	t.Helper()
	db, err := Open(Options{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	tbl, err := db.CreateTable("orders", []Column{
		{Name: "id", Kind: Int64},
		{Name: "region", Kind: Int64},
		{Name: "amount", Kind: Float64},
	}, TableOptions{MaxRows: 10000, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, Row{ID: RowID(i), Values: []Value{
			Int64Value(i), Int64Value(i % 4), Float64Value(float64(i)),
		}})
	}
	if err := db.Load(context.Background(), tbl, rows); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func TestCrudRoundTrip(t *testing.T) {
	db, tbl := openTest(t)
	s := db.Session()

	if err := s.Insert(context.Background(), tbl, 500, Int64Value(500), Int64Value(1), Float64Value(12.5)); err != nil {
		t.Fatal(err)
	}
	vals, ok, err := s.Get(context.Background(), tbl, 500, "amount")
	if err != nil || !ok || vals[0].Float() != 12.5 {
		t.Fatalf("get: %v %v %v", vals, ok, err)
	}
	if err := s.Update(context.Background(), tbl, 500, map[string]Value{"amount": Float64Value(99)}); err != nil {
		t.Fatal(err)
	}
	vals, _, _ = s.Get(context.Background(), tbl, 500, "amount")
	if vals[0].Float() != 99 {
		t.Fatalf("after update: %v", vals)
	}
	if err := s.Delete(context.Background(), tbl, 500); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(context.Background(), tbl, 500, "id"); ok {
		t.Fatal("deleted row still visible")
	}
	// Error paths.
	if err := s.Insert(context.Background(), tbl, 501, Int64Value(1)); err == nil {
		t.Error("short insert accepted")
	}
	if _, _, err := s.Get(context.Background(), tbl, 1, "nope"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestScalarAggregates(t *testing.T) {
	db, tbl := openTest(t)
	s := db.Session()
	sum, err := s.QueryScalar(context.Background(), tbl.Scan("amount").Sum("amount"))
	if err != nil || sum.Float() != 4950 {
		t.Fatalf("sum = %v, %v", sum, err)
	}
	cnt, err := s.QueryScalar(context.Background(), tbl.Scan("id").Count())
	if err != nil || cnt.Int() != 100 {
		t.Fatalf("count = %v, %v", cnt, err)
	}
	mx, err := s.QueryScalar(context.Background(), tbl.Scan("amount").Max("amount"))
	if err != nil || mx.Float() != 99 {
		t.Fatalf("max = %v, %v", mx, err)
	}
	avg, err := s.QueryScalar(context.Background(), tbl.Scan("amount").Avg("amount"))
	if err != nil || avg.Float() != 49.5 {
		t.Fatalf("avg = %v, %v", avg, err)
	}
}

func TestWherePredicate(t *testing.T) {
	db, tbl := openTest(t)
	s := db.Session()
	cnt, err := s.QueryScalar(context.Background(), tbl.Scan("amount").
		Where("amount", Ge, Float64Value(90)).
		Count())
	if err != nil || cnt.Int() != 10 {
		t.Fatalf("count >= 90: %v %v", cnt, err)
	}
}

func TestGroupByQuery(t *testing.T) {
	db, tbl := openTest(t)
	s := db.Session()
	q := tbl.Scan("region", "amount").GroupBy([]int{0}, []AggSpec{{Func: AggCount}, {Func: AggSum, Col: 1}})
	res, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 {
		t.Fatalf("groups = %d", res.NumRows())
	}
	for i := 0; i < res.NumRows(); i++ {
		if res.Row(i)[1].Int() != 25 {
			t.Errorf("group %v count = %v", res.Row(i)[0], res.Row(i)[1])
		}
	}
}

func TestJoinBuilder(t *testing.T) {
	db, tbl := openTest(t)
	dim, err := db.CreateTable("regions", []Column{
		{Name: "rid", Kind: Int64},
		{Name: "name", Kind: String},
	}, TableOptions{MaxRows: 10, Partitions: 1, ReplicateAll: true})
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for i := int64(0); i < 4; i++ {
		rows = append(rows, Row{ID: RowID(i), Values: []Value{Int64Value(i), StringValue("r")}})
	}
	if err := db.Load(context.Background(), dim, rows); err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	q := tbl.Scan("region", "amount").
		Join(dim.Scan("rid"), "region", "rid").
		GroupBy(nil, []AggSpec{{Func: AggCount}})
	res, err := s.Query(context.Background(), q)
	if err != nil || res.NumRows() != 1 || res.Row(0)[0].Int() != 100 {
		t.Fatalf("join count: %v %v", res, err)
	}
}

func TestQueryRowsStreaming(t *testing.T) {
	db, tbl := openTest(t)
	s := db.Session()

	rows, err := s.QueryRows(context.Background(), tbl.Scan("id", "amount").
		Where("amount", Ge, Float64Value(50)))
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Columns(); len(got) != 2 {
		t.Fatalf("columns = %v", got)
	}
	n := 0
	var id, amount Value
	for rows.Next() {
		if err := rows.Scan(&id, &amount); err != nil {
			t.Fatal(err)
		}
		if amount.Float() < 50 {
			t.Fatalf("row %v violates predicate", amount)
		}
		n++
	}
	if rows.Err() != nil || n != 50 {
		t.Fatalf("streamed %d rows, err %v", n, rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	// Abandoning a cursor mid-stream must be safe.
	rows, err = s.QueryRows(context.Background(), tbl.Scan("id"))
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	// Builder LIMIT flows through to the cursor.
	rows, err = s.QueryRows(context.Background(), tbl.Scan("id").Limit(7))
	if err != nil {
		t.Fatal(err)
	}
	n = 0
	for rows.Next() {
		n++
	}
	rows.Close()
	if n != 7 {
		t.Fatalf("limited stream = %d rows, want 7", n)
	}
}

func TestSessionReadYourWrites(t *testing.T) {
	db, tbl := openTest(t)
	s := db.Session()
	for i := 0; i < 10; i++ {
		if err := s.Update(context.Background(), tbl, 1, map[string]Value{"amount": Float64Value(float64(i))}); err != nil {
			t.Fatal(err)
		}
		vals, _, err := s.Get(context.Background(), tbl, 1, "amount")
		if err != nil || vals[0].Float() != float64(i) {
			t.Fatalf("iteration %d: read %v, %v", i, vals, err)
		}
	}
}

func TestLayoutReportAndModes(t *testing.T) {
	db, tbl := openTest(t)
	_ = tbl
	rep := db.LayoutReport()
	total := 0
	for _, n := range rep {
		total += n
	}
	if total == 0 {
		t.Error("no layouts reported")
	}
	if db.SiteCount() != 2 {
		t.Error("site count wrong")
	}

	for _, m := range []Mode{RowStore, ColumnStore, Janus, TiDBLike} {
		db2, err := Open(Options{Sites: 2, Mode: m})
		if err != nil {
			t.Fatal(err)
		}
		db2.Close()
	}
}
