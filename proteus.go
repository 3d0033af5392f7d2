// Package proteus is the public API of this reproduction of "Proteus:
// Autonomous Adaptive Storage for Mixed Workloads" (SIGMOD 2022): a
// distributed HTAP database engine that adaptively and autonomously
// selects per-partition storage layouts — row or column format, memory or
// disk tier, sort orders, compression, replication and mastership — from
// learned workload and cost models.
//
// A DB embeds a full simulated cluster: data sites with isolated OLTP,
// OLAP and parallel-scan slot counts, a redo-log broker, an interconnect
// model, and the adaptive storage advisor. Clients open sessions (strong
// session snapshot isolation) and submit keyed transactions or chainable
// analytical queries; every call takes a context controlling cancellation
// and deadlines:
//
//	db, _ := proteus.Open(proteus.Options{Sites: 3})
//	defer db.Close()
//
//	tbl, _ := db.CreateTable("orders", []proteus.Column{
//	    {Name: "id", Kind: proteus.Int64},
//	    {Name: "amount", Kind: proteus.Float64},
//	}, proteus.TableOptions{MaxRows: 1 << 20})
//
//	ctx := context.Background()
//	s := db.Session()
//	_ = s.Insert(ctx, tbl, 1, proteus.Int64Value(1), proteus.Float64Value(9.99))
//	sum, _ := s.QueryScalar(ctx, tbl.Scan("amount").Sum("amount"))
//
// Large scans can stream instead of materializing:
//
//	rows, _ := s.QueryRows(ctx, tbl.Scan("id", "amount").
//	    Where("amount", proteus.Gt, proteus.Float64Value(5)))
//	defer rows.Close()
//	for rows.Next() {
//	    fmt.Println(rows.Row())
//	}
//
// See the examples/ directory for complete programs and internal/
// experiments for the paper's evaluation suite.
package proteus

import (
	"context"
	"fmt"
	"time"

	"proteus/internal/admission"
	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/faults"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Kind aliases the value kinds.
type Kind = types.Kind

// Column kinds.
const (
	Int64   = types.KindInt64
	Float64 = types.KindFloat64
	String  = types.KindString
	Time    = types.KindTime
	Bool    = types.KindBool
)

// Value aliases the cell value type.
type Value = types.Value

// Value constructors.
var (
	Int64Value   = types.NewInt64
	Float64Value = types.NewFloat64
	StringValue  = types.NewString
	TimeValue    = types.NewTime
	BoolValue    = types.NewBool
)

// Column aliases the schema column definition.
type Column = schema.Column

// Table is a table handle: the schema definition plus the chainable query
// builder entry point (see Table.Scan in builder.go).
type Table struct {
	*schema.Table
}

// RowID aliases the primary-key type.
type RowID = schema.RowID

// Mode selects the storage architecture; the default is the adaptive
// Proteus mode. Baseline architectures from the paper's evaluation are
// available for comparison.
type Mode = cluster.Mode

// Architecture modes.
const (
	Adaptive    = cluster.ModeProteus
	RowStore    = cluster.ModeRowStore
	ColumnStore = cluster.ModeColumnStore
	Janus       = cluster.ModeJanus
	TiDBLike    = cluster.ModeTiDB
)

// Options configures a DB.
type Options struct {
	// Sites is the data-site count (default 2).
	Sites int
	// Mode selects the architecture (default Adaptive).
	Mode Mode
	// Cluster, when non-nil, overrides every knob (advanced use).
	Cluster *cluster.Config
}

// DB is an open Proteus cluster.
type DB struct {
	eng *cluster.Engine
}

// Open starts a cluster.
func Open(o Options) (*DB, error) {
	cfg := cluster.DefaultConfig()
	if o.Cluster != nil {
		cfg = *o.Cluster
	} else {
		if o.Sites > 0 {
			cfg.NumSites = o.Sites
		}
		cfg.Mode = o.Mode
	}
	return &DB{eng: cluster.New(cfg)}, nil
}

// Close shuts the cluster down.
func (db *DB) Close() { db.eng.Close() }

// Engine exposes the underlying cluster for advanced use (experiments,
// layout inspection).
func (db *DB) Engine() *cluster.Engine { return db.eng }

// TableOptions refines table creation.
type TableOptions struct {
	// MaxRows bounds the row-id space (default 1<<30).
	MaxRows RowID
	// Partitions is the initial horizontal partition count (default one
	// per site).
	Partitions int
	// ReplicateAll installs a replica at every site (read-only tables).
	ReplicateAll bool
}

// CreateTable defines a table.
func (db *DB) CreateTable(name string, cols []Column, opts TableOptions) (*Table, error) {
	parts := opts.Partitions
	if parts <= 0 {
		parts = len(db.eng.Sites)
	}
	t, err := db.eng.CreateTable(cluster.TableSpec{
		Name: name, Cols: cols, MaxRows: opts.MaxRows,
		Partitions: parts, ReplicateAll: opts.ReplicateAll,
	})
	if err != nil {
		return nil, err
	}
	return &Table{Table: t}, nil
}

// Load bulk-loads rows (id, values...) into a table.
func (db *DB) Load(ctx context.Context, tbl *Table, rows []Row) error {
	out := make([]schema.Row, len(rows))
	for i, r := range rows {
		out[i] = schema.Row{ID: r.ID, Vals: r.Values}
	}
	return db.eng.LoadRows(ctx, tbl.Table.ID, out)
}

// Row is one tuple for bulk loading.
type Row struct {
	ID     RowID
	Values []Value
}

// LayoutReport summarizes the cluster's current physical design.
func (db *DB) LayoutReport() map[string]int { return db.eng.LayoutCounts() }

// Session is one client connection with strong session snapshot isolation:
// every transaction observes the effects of the session's previous reads
// and writes.
type Session struct {
	db *DB
	s  *cluster.Session
}

// Session opens a client session.
func (db *DB) Session() *Session {
	return &Session{db: db, s: db.eng.NewSession()}
}

// Exec runs a multi-operation transaction built with the Op helpers.
// ctx bounds the attempt (including retries) and cancels it early.
func (s *Session) Exec(ctx context.Context, ops ...query.Op) (Result, error) {
	rel, err := s.db.eng.ExecuteTxn(ctx, s.s, &query.Txn{Ops: ops})
	return Result{rel: rel}, err
}

// Insert adds one row with values for every column.
func (s *Session) Insert(ctx context.Context, tbl *Table, id RowID, vals ...Value) error {
	if len(vals) != tbl.NumColumns() {
		return fmt.Errorf("proteus: %d values for %d columns", len(vals), tbl.NumColumns())
	}
	_, err := s.Exec(ctx, InsertOp(tbl, id, vals...))
	return err
}

// Update overwrites named columns of one row.
func (s *Session) Update(ctx context.Context, tbl *Table, id RowID, set map[string]Value) error {
	op, err := UpdateOp(tbl, id, set)
	if err != nil {
		return err
	}
	_, err = s.Exec(ctx, op)
	return err
}

// Delete removes one row.
func (s *Session) Delete(ctx context.Context, tbl *Table, id RowID) error {
	_, err := s.Exec(ctx, DeleteOp(tbl, id))
	return err
}

// Get reads named columns of one row; found reports existence.
func (s *Session) Get(ctx context.Context, tbl *Table, id RowID, cols ...string) ([]Value, bool, error) {
	ids, err := colIDs(tbl, cols)
	if err != nil {
		return nil, false, err
	}
	res, err := s.Exec(ctx, query.Op{Kind: query.OpRead, Table: tbl.Table.ID, Row: id, Cols: ids})
	if err != nil {
		return nil, false, err
	}
	if len(res.rel.Tuples) == 0 || res.rel.Tuples[0] == nil {
		return nil, false, nil
	}
	return res.rel.Tuples[0], true, nil
}

// Query executes an analytical query — a builder chain from Table.Scan or
// a prebuilt *query.Query — and materializes the result. Cancelling ctx
// aborts the distributed scan, closing its morsel feeds.
func (s *Session) Query(ctx context.Context, q Queryable) (Result, error) {
	rel, err := s.db.eng.ExecuteQuery(ctx, s.s, q.Build())
	return Result{rel: rel}, err
}

// QueryRows executes an analytical query and streams the result rows.
// The caller must Close the cursor (or drain it) to release the scan.
func (s *Session) QueryRows(ctx context.Context, q Queryable) (*Rows, error) {
	cur, err := s.db.eng.ExecuteQueryStream(ctx, s.s, q.Build())
	if err != nil {
		return nil, err
	}
	return &Rows{cur: cur}, nil
}

// QueryScalar executes a query expected to yield a single value.
func (s *Session) QueryScalar(ctx context.Context, q Queryable) (Value, error) {
	res, err := s.Query(ctx, q)
	if err != nil {
		return types.Null(), err
	}
	if len(res.rel.Tuples) != 1 || len(res.rel.Tuples[0]) < 1 {
		return types.Null(), fmt.Errorf("proteus: query returned %d rows", len(res.rel.Tuples))
	}
	return res.rel.Tuples[0][0], nil
}

// Result is a materialized query or read result.
type Result struct {
	rel exec.Rel
}

// NumRows reports the tuple count.
func (r Result) NumRows() int { return r.rel.NumRows() }

// Row returns tuple i.
func (r Result) Row(i int) []Value { return r.rel.Tuples[i] }

// Columns returns the output column labels.
func (r Result) Columns() []string { return r.rel.Cols }

// --- Operation builders --------------------------------------------------

func colIDs(tbl *Table, names []string) ([]schema.ColID, error) {
	out := make([]schema.ColID, len(names))
	for i, n := range names {
		id, ok := tbl.ColumnID(n)
		if !ok {
			return nil, fmt.Errorf("proteus: table %s has no column %q", tbl.Name, n)
		}
		out[i] = id
	}
	return out, nil
}

// InsertOp builds an insert operation.
func InsertOp(tbl *Table, id RowID, vals ...Value) query.Op {
	return query.Op{Kind: query.OpInsert, Table: tbl.Table.ID, Row: id, Vals: vals}
}

// UpdateOp builds an update of named columns.
func UpdateOp(tbl *Table, id RowID, set map[string]Value) (query.Op, error) {
	op := query.Op{Kind: query.OpUpdate, Table: tbl.Table.ID, Row: id}
	for name, v := range set {
		cid, ok := tbl.ColumnID(name)
		if !ok {
			return op, fmt.Errorf("proteus: table %s has no column %q", tbl.Name, name)
		}
		op.Cols = append(op.Cols, cid)
		op.Vals = append(op.Vals, v)
	}
	return op, nil
}

// DeleteOp builds a delete operation.
func DeleteOp(tbl *Table, id RowID) query.Op {
	return query.Op{Kind: query.OpDelete, Table: tbl.Table.ID, Row: id}
}

// ReadOp builds a keyed read of named columns (panics on unknown columns;
// use colIDs-based helpers for dynamic names).
func ReadOp(tbl *Table, id RowID, cols ...string) query.Op {
	ids, err := colIDs(tbl, cols)
	if err != nil {
		panic(err)
	}
	return query.Op{Kind: query.OpRead, Table: tbl.Table.ID, Row: id, Cols: ids}
}

// Comparison operators for Where.
const (
	Eq = storage.CmpEq
	Ne = storage.CmpNe
	Lt = storage.CmpLt
	Le = storage.CmpLe
	Gt = storage.CmpGt
	Ge = storage.CmpGe
)

// AggSpec aliases the aggregate specification for GroupBy.
type AggSpec = exec.AggSpec

// Aggregate functions for GroupBy specs.
const (
	AggSum   = exec.AggSum
	AggCount = exec.AggCount
	AggMin   = exec.AggMin
	AggMax   = exec.AggMax
	AggAvg   = exec.AggAvg
)

// SiteCount reports the cluster's data-site count.
func (db *DB) SiteCount() int { return len(db.eng.Sites) }

// SiteID aliases the site identifier.
type SiteID = simnet.SiteID

// --- Multi-tenant admission control --------------------------------------

// ErrOverload is returned (possibly wrapped) when the admission
// controller sheds a request instead of queuing it: the tenant's token
// bucket ran dry with a full wait queue, or a backlog guard tripped.
// Match with errors.Is; a shed request was never executed — a shed write
// is never acknowledged. Use RetryAfter for the controller's hint on
// when retrying has a chance of admission.
var ErrOverload = faults.ErrOverload

// DefaultTenant is the tenant untagged work is charged against.
const DefaultTenant = admission.DefaultTenant

// WithTenant tags a context with the tenant the request is charged
// against under token-bucket admission. Untagged contexts share the
// DefaultTenant bucket.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return admission.WithTenant(ctx, tenant)
}

// Tenant reports the tenant a context's requests are charged against.
func Tenant(ctx context.Context) string { return admission.TenantFrom(ctx) }

// RetryAfter extracts the admission controller's retry hint from a shed
// error; ok is false when err is not an overload shed.
func RetryAfter(err error) (d time.Duration, ok bool) { return faults.RetryAfterHint(err) }
