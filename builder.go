package proteus

import (
	"fmt"

	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/storage"
)

// Queryable is anything that can produce a logical query tree: a
// *ScanBuilder mid-chain, or a fully built *query.Query. Session.Query,
// QueryRows and QueryScalar accept either, so chains never need a
// trailing Build call.
type Queryable interface {
	Build() *query.Query
}

// Scan starts a chainable analytical query over the table's named
// columns:
//
//	total, _ := s.QueryScalar(ctx, tbl.Scan("amount").
//	    Where("amount", proteus.Gt, proteus.Float64Value(10)).
//	    Sum("amount"))
//
// Unknown column names panic: a misspelled column is a programming error
// in the query's construction, not a runtime condition.
func (t *Table) Scan(cols ...string) *ScanBuilder {
	ids, err := colIDs(t, cols)
	if err != nil {
		panic(err)
	}
	return &ScanBuilder{
		tbl:  t,
		scan: &query.ScanNode{Table: t.Table.ID, Cols: ids},
	}
}

// ScanBuilder accumulates a query tree over one table (optionally joined
// with another). Every method returns the builder, so calls chain; the
// zero-cost Build finishes the chain, and passing the builder directly to
// Session.Query builds implicitly.
type ScanBuilder struct {
	tbl   *Table
	scan  *query.ScanNode // predicate target (the builder's own leaf)
	root  query.Node      // non-nil once the tree grew past the leaf
	limit int
}

func (b *ScanBuilder) rootNode() query.Node {
	if b.root != nil {
		return b.root
	}
	return b.scan
}

// Build implements Queryable.
func (b *ScanBuilder) Build() *query.Query {
	return &query.Query{Root: b.rootNode(), Limit: b.limit}
}

// Where adds a predicate conjunct (col op value) to the scan leaf.
// Conjuncts are pushed into the storage engine and prune entire
// partitions through their zone maps before any morsel is scheduled.
func (b *ScanBuilder) Where(col string, op storage.CmpOp, v Value) *ScanBuilder {
	cid, ok := b.tbl.ColumnID(col)
	if !ok {
		panic(fmt.Sprintf("proteus: table %s has no column %q", b.tbl.Name, col))
	}
	b.scan.Pred = append(b.scan.Pred, storage.Cond{Col: cid, Op: op, Val: v})
	return b
}

// Limit caps the result at n rows. The executor terminates early —
// closing the morsel feed — once n rows exist.
func (b *ScanBuilder) Limit(n int) *ScanBuilder {
	b.limit = n
	return b
}

// colPos resolves a scanned column name to its output position.
func (b *ScanBuilder) colPos(col string) int {
	cid, ok := b.tbl.ColumnID(col)
	if !ok {
		panic(fmt.Sprintf("proteus: table %s has no column %q", b.tbl.Name, col))
	}
	for i, c := range b.scan.Cols {
		if c == cid {
			return i
		}
	}
	panic(fmt.Sprintf("proteus: column %q not in scan output", col))
}

// agg wraps the current tree in a single ungrouped aggregate.
func (b *ScanBuilder) agg(fn exec.AggFunc, col string) *ScanBuilder {
	pos := -1
	if col != "" {
		pos = b.colPos(col)
	}
	b.root = &query.AggNode{
		Child: b.rootNode(),
		Aggs:  []exec.AggSpec{{Func: fn, Col: pos}},
	}
	return b
}

// Sum aggregates SUM(col); col must be among the scanned columns.
func (b *ScanBuilder) Sum(col string) *ScanBuilder { return b.agg(exec.AggSum, col) }

// Count aggregates COUNT(*).
func (b *ScanBuilder) Count() *ScanBuilder { return b.agg(exec.AggCount, "") }

// Min aggregates MIN(col).
func (b *ScanBuilder) Min(col string) *ScanBuilder { return b.agg(exec.AggMin, col) }

// Max aggregates MAX(col).
func (b *ScanBuilder) Max(col string) *ScanBuilder { return b.agg(exec.AggMax, col) }

// Avg aggregates AVG(col).
func (b *ScanBuilder) Avg(col string) *ScanBuilder { return b.agg(exec.AggAvg, col) }

// Join inner-equi-joins this builder's tree with another table's scan on
// named key columns (each must be among its side's scanned columns). The
// joined output is the concatenation of both sides' columns; GroupBy
// positions index into it.
func (b *ScanBuilder) Join(right *ScanBuilder, leftCol, rightCol string) *ScanBuilder {
	b.root = &query.JoinNode{
		Left:        b.rootNode(),
		Right:       right.rootNode(),
		LeftKeyCol:  b.colPos(leftCol),
		RightKeyCol: right.colPos(rightCol),
	}
	return b
}

// GroupBy wraps the current tree in a grouped aggregation: group
// positions and agg specs index the child's output columns.
func (b *ScanBuilder) GroupBy(groupPositions []int, aggs []AggSpec) *ScanBuilder {
	b.root = &query.AggNode{Child: b.rootNode(), GroupBy: groupPositions, Aggs: aggs}
	return b
}
