package proteus

import (
	"context"
	"math"
	"testing"
	"time"

	"proteus/internal/schema"
	"proteus/internal/sqlparse"
	"proteus/internal/storage"
	"proteus/internal/types"
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

// openNullOrders loads 100 rows in 4 partitions under mode, amount =
// id + 100 except row 10's, which is NULL.
func openNullOrders(t *testing.T, mode Mode) (*DB, *Table) {
	t.Helper()
	db, err := Open(Options{Sites: 2, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	tbl, err := db.CreateTable("orders", []Column{{Name: "id", Kind: Int64}, {Name: "amount", Kind: Float64}},
		TableOptions{MaxRows: 100, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for i := int64(0); i < 100; i++ {
		amount := Float64Value(float64(i + 100))
		if i == 10 {
			amount = types.Null()
		}
		rows = append(rows, Row{ID: RowID(i), Values: []Value{Int64Value(i), amount}})
	}
	if err := db.Load(context.Background(), tbl, rows); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// nullModes are the modes whose default copies are rows and columns.
var nullModes = map[string]Mode{"rows": RowStore, "columns": ColumnStore}

// TestAvgSkipsNull runs AVG through the distributed two-phase plan over
// openNullOrders' rows: SQL divides by the 99 non-NULL amounts, on row
// copies as on column copies.
func TestAvgSkipsNull(t *testing.T) {
	for name, mode := range nullModes {
		db, tbl := openNullOrders(t, mode)
		avg, err := db.Session().QueryScalar(context.Background(), tbl.Scan("amount").Avg("amount"))
		if want := (14950.0 - 110) / 99; err != nil || math.Abs(avg.Float()-want) > 1e-9 {
			t.Fatalf("%s: avg = %v, %v; want %v", name, avg, err, want)
		}
	}
}

// TestSQLCountColumnSkipsNull: COUNT(col) counts the non-NULL inputs and
// COUNT(*) every row, through the SQL front end.
func TestSQLCountColumnSkipsNull(t *testing.T) {
	for name, mode := range nullModes {
		db, _ := openNullOrders(t, mode)
		e := db.Engine()
		req, err := sqlparse.Parse(e.Catalog, "SELECT COUNT(amount), COUNT(*) FROM orders")
		if err != nil {
			t.Fatal(err)
		}
		rel, err := e.ExecuteQuery(context.Background(), e.NewSession(), req.Query)
		if err != nil || len(rel.Tuples) != 1 {
			t.Fatalf("%s: query: %v rows, %v", name, len(rel.Tuples), err)
		}
		if got := rel.Tuples[0]; got[0].Int() != 99 || got[1].Int() != 100 {
			t.Errorf("%s: COUNT(amount), COUNT(*) = %v, %v; want 99, 100", name, got[0], got[1])
		}
	}
}

// TestComparisonWithNullIsFalse: no comparison selects the NULL amount,
// and the answer is the same whether the zone map prunes the NULL row's
// partition or has to scan it.
func TestComparisonWithNullIsFalse(t *testing.T) {
	db, tbl := openNullOrders(t, ColumnStore)
	ctx := context.Background()
	s := db.Session()
	count := func(op storage.CmpOp, v float64) int64 {
		t.Helper()
		n, err := s.QueryScalar(ctx, tbl.Scan("amount").Where("amount", op, Float64Value(v)).Count())
		if err != nil {
			t.Fatal(err)
		}
		return n.Int()
	}
	if got := count(Lt, 150); got != 49 {
		t.Errorf("amount < 150: %d rows, want 49", got)
	}
	if got := count(Ne, 150); got != 98 {
		t.Errorf("amount <> 150: %d rows, want 98", got)
	}
	if got := count(Ge, 0); got != 99 {
		t.Errorf("amount >= 0: %d rows, want 99", got)
	}
	first := db.Engine().Dir.TablePartitions(tbl.ID)[0] // rows 0–24, the NULL included
	below5 := storage.Pred{{Col: 1, Op: Lt, Val: Float64Value(5)}}
	if !first.ZoneMap.CanSkip(below5) {
		t.Fatal("the zone map does not prune amount < 5 on rows 0–24")
	}
	if got := count(Lt, 5); got != 0 {
		t.Errorf("amount < 5, NULL row's partition pruned: %d rows, want 0", got)
	}
	// Widen the partition's zone map past the constant: it no longer
	// prunes, and the scan meets the NULL row.
	for _, v := range []float64{1, 111} {
		if err := s.Update(ctx, tbl, 11, map[string]Value{"amount": Float64Value(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if first.ZoneMap.CanSkip(below5) {
		t.Fatal("the zone map still prunes amount < 5 after amount 1 was written")
	}
	if got := count(Lt, 5); got != 0 {
		t.Errorf("amount < 5, NULL row's partition scanned: %d rows, want 0", got)
	}
}

// TestNullOnEveryCopy: a NULL reads back as NULL whichever copy serves it.
// Row 10 is loaded NULL and row 20 updated to NULL; Get returns NULL for
// both and amount < 150 counts the 48 rows left, on row copies as on
// column copies. A row master with a column replica then agree, cell for
// cell, once the replica has applied the update to NULL.
func TestNullOnEveryCopy(t *testing.T) {
	ctx := context.Background()
	for name, mode := range nullModes {
		db, tbl := openNullOrders(t, mode)
		s := db.Session()
		if err := s.Update(ctx, tbl, 20, map[string]Value{"amount": types.Null()}); err != nil {
			t.Fatal(err)
		}
		for _, id := range []RowID{10, 20} {
			if vals, ok, err := s.Get(ctx, tbl, id, "amount"); err != nil || !ok || !vals[0].IsNull() {
				t.Errorf("%s: Get(%d) = %v (%v, %v), want NULL", name, id, vals, ok, err)
			}
		}
		n, err := s.QueryScalar(ctx, tbl.Scan("amount").Where("amount", Lt, Float64Value(150)).Count())
		if err != nil || n.Int() != 48 {
			t.Errorf("%s: amount < 150 counts %v (%v), want 48", name, n, err)
		}
	}

	db, tbl := openNullOrders(t, RowStore)
	e := db.Engine()
	m := e.Dir.TablePartitions(tbl.ID)[0] // rows 0–24
	master := m.Master().Site
	if err := e.AddReplicaOp(m.ID, 1-master, storage.DefaultColumnLayout()); err != nil {
		t.Fatal(err)
	}
	if err := db.Session().Update(ctx, tbl, 20, map[string]Value{"amount": types.Null()}); err != nil {
		t.Fatal(err)
	}
	rowCopy, _ := e.Sites[master].Partition(m.ID)
	colCopy, _ := e.Sites[1-master].Partition(m.ID)
	for deadline := time.Now().Add(10 * time.Second); colCopy.Version() < rowCopy.Version(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the column replica stayed at version %d, the master is at %d", colCopy.Version(), rowCopy.Version())
		}
	}
	cols := []schema.ColID{0, 1}
	for id := RowID(0); id < 25; id++ {
		r, _ := rowCopy.Get(id, cols, storage.Latest)
		c, _ := colCopy.Get(id, cols, storage.Latest)
		if len(r.Vals) != 2 || len(c.Vals) != 2 || !sameValue(r.Vals[1], c.Vals[1]) {
			t.Errorf("row %d: the row master holds %v, the column replica %v", id, r.Vals, c.Vals)
		}
	}
}

// sameValue is value equality with NULL equal to NULL.
func sameValue(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return types.Equal(a, b)
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
