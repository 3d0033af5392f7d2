// Package ycsb implements the transactional YCSB workload of §6.1: a
// 10-key read-modify-write OLTP transaction with zipfian-skewed keys, and
// an OLAP query that scans the table, evaluates a predicate and aggregates
// the result. A shifting skew centre serves Fig 12c, and FreshnessQuery the
// freshness-stamp methodology of Appendix B.1.
package ycsb

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Config sizes the workload. The paper uses 50M rows x 10 columns x 100
// bytes (50 GB); defaults here scale to laptop runs.
type Config struct {
	Rows      int64
	Fields    int // data columns beside the key
	FieldSize int // bytes per string field
	// ZipfS is the zipfian skew exponent (>1); higher = more skew.
	ZipfS float64
	// KeysPerTxn is the RMW multi-key count (paper: 10).
	KeysPerTxn int
	// Partitions is the initial partition count (baselines get one per
	// site via Schism-style contiguous placement).
	Partitions int
}

// DefaultConfig returns a small-but-meaningful sizing.
func DefaultConfig() Config {
	return Config{
		Rows: 20000, Fields: 10, FieldSize: 16,
		ZipfS: 1.2, KeysPerTxn: 10, Partitions: 8,
	}
}

// Workload is a loaded YCSB database bound to an engine.
type Workload struct {
	cfg Config
	e   *cluster.Engine
	tbl *schema.Table

	// skewOffset shifts the zipf centre (Fig 12c/13); atomically updated.
	skewOffset atomic.Int64
}

// Setup creates and loads the usertable. Baseline modes receive
// contiguous-range placement across sites (the Schism advantage); Proteus
// starts identically and adapts.
func Setup(e *cluster.Engine, cfg Config) (*Workload, error) {
	if cfg.Rows <= 0 || cfg.Fields <= 0 {
		return nil, fmt.Errorf("ycsb: bad config %+v", cfg)
	}
	cols := make([]schema.Column, 0, cfg.Fields+1)
	cols = append(cols, schema.Column{Name: "ykey", Kind: types.KindInt64})
	for i := 0; i < cfg.Fields; i++ {
		cols = append(cols, schema.Column{
			Name: fmt.Sprintf("field%d", i), Kind: types.KindString,
			AvgSize: float64(cfg.FieldSize),
		})
	}
	parts := cfg.Partitions
	if parts <= 0 {
		parts = len(e.Sites)
	}
	tbl, err := e.CreateTable(cluster.TableSpec{
		Name: "usertable", Cols: cols, MaxRows: schema.RowID(cfg.Rows),
		Partitions: parts,
		PlaceAt: func(p int) simnet.SiteID {
			// Contiguous ranges striped over sites.
			return simnet.SiteID(p * len(e.Sites) / parts % len(e.Sites))
		},
	})
	if err != nil {
		return nil, err
	}
	w := &Workload{cfg: cfg, e: e, tbl: tbl}

	rng := rand.New(rand.NewSource(42))
	rows := make([]schema.Row, 0, cfg.Rows)
	for i := int64(0); i < cfg.Rows; i++ {
		vals := make([]types.Value, 0, cfg.Fields+1)
		vals = append(vals, types.NewInt64(i))
		for f := 0; f < cfg.Fields; f++ {
			vals = append(vals, types.NewString(randString(rng, cfg.FieldSize)))
		}
		rows = append(rows, schema.Row{ID: schema.RowID(i), Vals: vals})
	}
	if err := e.LoadRows(context.Background(), tbl.ID, rows); err != nil {
		return nil, err
	}
	return w, nil
}

const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func randString(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

// Table exposes the usertable definition.
func (w *Workload) Table() *schema.Table { return w.tbl }

// SetSkewCenter moves the zipf distribution's hot spot (workload shifts).
func (w *Workload) SetSkewCenter(offset int64) {
	w.skewOffset.Store(offset)
}

// NewZipf builds a per-client zipfian key source.
func (w *Workload) NewZipf(r *rand.Rand) *rand.Zipf {
	return rand.NewZipf(r, w.cfg.ZipfS, 1, uint64(w.cfg.Rows-1))
}

// key draws a skewed key, offset by the current skew centre.
func (w *Workload) key(z *rand.Zipf) int64 {
	return (int64(z.Uint64()) + w.skewOffset.Load()) % w.cfg.Rows
}

// OLTP builds one 10-key read-modify-write transaction.
func (w *Workload) OLTP(r *rand.Rand, z *rand.Zipf) *query.Txn {
	n := w.cfg.KeysPerTxn
	seen := make(map[int64]bool, n)
	ops := make([]query.Op, 0, 2*n)
	field := schema.ColID(1 + r.Intn(w.cfg.Fields))
	for len(seen) < n {
		k := w.key(z)
		if seen[k] {
			continue
		}
		seen[k] = true
		ops = append(ops, query.Op{
			Kind: query.OpRead, Table: w.tbl.ID, Row: schema.RowID(k),
			Cols: []schema.ColID{field},
		})
		ops = append(ops, query.Op{
			Kind: query.OpUpdate, Table: w.tbl.ID, Row: schema.RowID(k),
			Cols: []schema.ColID{field}, Vals: []types.Value{types.NewString(randString(r, w.cfg.FieldSize))},
		})
	}
	return &query.Txn{Ops: ops}
}

// Client adapts the workload to the scenario.Client interface with
// client-local RNG and zipf state.
type Client struct {
	w *Workload
	r *rand.Rand
	z *rand.Zipf
}

// NewClient builds client i.
func (w *Workload) NewClient(i int, r *rand.Rand) *Client {
	return &Client{w: w, r: r, z: w.NewZipf(r)}
}

// OLTP implements scenario.Client.
func (c *Client) OLTP() *query.Txn { return c.w.OLTP(c.r, c.z) }

// OLAP implements scenario.Client.
func (c *Client) OLAP() *query.Query { return c.w.OLAP(c.r) }

// FreshnessQuery builds the Appendix B.1 analytical probe: MIN of the
// stamp field over the hot key range [0, hiKey).
func (w *Workload) FreshnessQuery(hiKey int64) *query.Query {
	return &query.Query{Root: &query.AggNode{
		Child: &query.ScanNode{
			Table: w.tbl.ID,
			Cols:  []schema.ColID{1},
			Pred:  storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(hiKey)}},
		},
		Aggs: []exec.AggSpec{{Func: exec.AggMin, Col: 0}},
	}}
}

// OLAP builds the scan-and-aggregate query: scan the key span, evaluate a
// field predicate, aggregate the matches (paper: 500k-row scan).
func (w *Workload) OLAP(r *rand.Rand) *query.Query {
	field := schema.ColID(1 + r.Intn(w.cfg.Fields))
	// Predicate with ~50% selectivity on the lexicographic space.
	pred := storage.Pred{{Col: field, Op: storage.CmpGe, Val: types.NewString("V")}}
	return &query.Query{Root: &query.AggNode{
		Child: &query.ScanNode{Table: w.tbl.ID, Cols: []schema.ColID{0, field}, Pred: pred},
		Aggs:  []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggMax, Col: 0}},
	}}
}
