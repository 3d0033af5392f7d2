package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/types"
	"proteus/internal/vclock"
	"proteus/internal/workload/chbench"
	"proteus/internal/workload/twitter"
	"proteus/internal/workload/ycsb"
)

// Client is one closed-loop client of a workload: every round it sends
// OLTP transactions and, every olap_every-th round, one OLAP query.
type Client interface {
	OLTP() *query.Txn
	OLAP() *query.Query
}

// loaded is a workload set up on an engine.
type loaded struct {
	// client builds client c's request source over its own generator.
	client func(c int, rng *rand.Rand) Client
	// queries names the OLAP queries clients cycle through, in order:
	// client c's n-th query is queries[(c+n) % len(queries)].
	queries []string
	// skew moves the hot keys frac of the way through the key space (nil:
	// the workload has no skew centre).
	skew func(frac float64)
	// acked holds, per items client, the value each acknowledged write
	// set in table; the run reads them back after the cluster heals.
	acked []map[schema.RowID]float64
	table schema.TableID
}

// acker is a client that records its last transaction's write once the
// engine acknowledged it.
type acker interface{ ack() }

// stamper is a client whose OLAP answer is the oldest write stamp the
// query saw (Appendix B.1), taken from the clock its writers stamp with.
type stamper interface {
	oldest(res exec.Rel) (time.Time, bool)
}

var testCols = []schema.Column{
	{Name: "id", Kind: types.KindInt64},
	{Name: "grp", Kind: types.KindInt64},
	{Name: "val", Kind: types.KindFloat64},
	{Name: "note", Kind: types.KindString, AvgSize: 16},
}

// load creates and fills the spec's workload on e. The paper's workloads
// then run under the §6.2 memory cap: each site's memory tier holds 1.5×
// its share of the loaded master copies, so one copy of the data fits with
// head-room while full dual-format replication (Janus, TiDB) spills to
// the disk tier.
func (s Spec) load(e *cluster.Engine, clk vclock.Clock) (*loaded, error) {
	var wl *loaded
	switch s.Workload {
	case "", "items":
		return s.loadItems(e)
	case "ycsb", "freshness":
		cfg := ycsb.DefaultConfig()
		cfg.Rows, cfg.Partitions = s.Rows, s.Partitions
		w, err := ycsb.Setup(e, cfg)
		if err != nil {
			return nil, err
		}
		wl = &loaded{client: func(c int, rng *rand.Rand) Client { return w.NewClient(c, rng) }, queries: []string{"scan"},
			skew: func(frac float64) { w.SetSkewCenter(int64(frac * float64(s.Rows))) }}
		if s.Workload == "freshness" {
			if wl, err = freshness(e, w, clk); err != nil {
				return nil, err
			}
		}
	case "ch":
		cfg := chbench.DefaultConfig()
		cfg.Warehouses, cfg.LoadedOrdersPerDistrict = s.Sites, int(s.Rows)
		if s.CrossWarehousePct != nil {
			cfg.CrossWarehousePct = *s.CrossWarehousePct
		}
		w, err := chbench.Setup(e, cfg)
		if err != nil {
			return nil, err
		}
		wl = &loaded{client: func(c int, rng *rand.Rand) Client { return w.NewClient(c, rng) },
			queries: []string{"q1", "q6", "q14", "q4", "q12", "q3", "q7", "q19"}}
	case "twitter":
		cfg := twitter.DefaultConfig()
		cfg.Users, cfg.InitialTweets = int(s.Rows), 6*int(s.Rows)
		w, err := twitter.Setup(e, cfg)
		if err != nil {
			return nil, err
		}
		wl = &loaded{client: func(c int, rng *rand.Rand) Client { return w.NewClient(c, rng) },
			queries: []string{"timeline", "timespan", "per-user", "prefix", "leaders", "recent"}}
	}
	e.SetMemCapacityPerSite(e.MasterMemUsage() / int64(len(e.Sites)) * 3 / 2)
	return wl, nil
}

func (s Spec) loadItems(e *cluster.Engine) (*loaded, error) {
	tbl, err := e.CreateTable(cluster.TableSpec{
		Name: "items", Cols: testCols, MaxRows: schema.RowID(s.Rows), Partitions: s.Partitions,
	})
	if err != nil {
		return nil, err
	}
	data := make([]schema.Row, 0, s.Rows)
	for i := int64(0); i < s.Rows; i++ {
		data = append(data, schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(i), types.NewInt64(i % 16), types.NewFloat64(float64(i)), types.NewString(fmt.Sprintf("row-%d", i)),
		}})
	}
	if err := e.LoadRows(context.Background(), tbl.ID, data); err != nil {
		return nil, err
	}
	scan := &query.Query{Root: &query.AggNode{
		Child: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{2}},
		Aggs:  []exec.AggSpec{{Func: exec.AggSum, Col: 0}, {Func: exec.AggCount}},
	}}
	wl := &loaded{queries: []string{"sum"}, acked: make([]map[schema.RowID]float64, s.Clients), table: tbl.ID}
	for c := range wl.acked {
		wl.acked[c] = make(map[schema.RowID]float64)
	}
	wl.client = func(c int, rng *rand.Rand) Client {
		return &itemsClient{
			tbl: tbl.ID, rng: rng, rows: s.Rows, perRound: s.OLTPPerRound, scan: scan, acked: wl.acked[c],
			lo: s.Rows * int64(c) / int64(s.Clients), hi: s.Rows * int64(c+1) / int64(s.Clients),
		}
	}
	return wl, nil
}

// itemsClient updates rows of its own stripe of the items table, so the
// value each acknowledged write set is known without cross-client races.
type itemsClient struct {
	tbl          schema.TableID
	rng          *rand.Rand
	lo, hi, rows int64
	perRound     int
	seq          int
	row          schema.RowID // the last transaction's write
	val          float64
	scan         *query.Query
	acked        map[schema.RowID]float64
}

func (c *itemsClient) OLTP() *query.Txn {
	c.row = schema.RowID(c.lo + c.rng.Int63n(c.hi-c.lo))
	c.val = float64(c.seq)
	ops := []query.Op{{
		Kind: query.OpUpdate, Table: c.tbl, Row: c.row,
		Cols: []schema.ColID{2}, Vals: []types.Value{types.NewFloat64(c.val)},
	}}
	if c.seq%c.perRound == 0 {
		// One uniform read every oltp_per_round transactions keeps a share
		// of them distributed, exercising remote 2PC.
		ops = append(ops, query.Op{
			Kind: query.OpRead, Table: c.tbl,
			Row: schema.RowID(c.rng.Int63n(c.rows)), Cols: []schema.ColID{0},
		})
	}
	c.seq++
	return &query.Txn{Ops: ops}
}

func (c *itemsClient) OLAP() *query.Query { return c.scan }

func (c *itemsClient) ack() { c.acked[c.row] = c.val }

// hotKeys is the freshness workload's stamped key range.
const hotKeys = 64

// freshness turns a loaded ycsb table into Appendix B.1's probe: writers
// stamp a random hot key with the clock, and every query reads the oldest
// stamp over the hot keys, each stamped once to start with.
func freshness(e *cluster.Engine, w *ycsb.Workload, clk vclock.Clock) (*loaded, error) {
	sess := e.NewSession()
	for k := int64(0); k < hotKeys; k++ {
		if _, err := e.ExecuteTxn(context.Background(), sess, stampTxn(w, k, clk)); err != nil {
			return nil, err
		}
	}
	return &loaded{client: func(c int, rng *rand.Rand) Client { return &freshClient{w, rng, clk} }, queries: []string{"min"}}, nil
}

// stampTxn writes the clock's time into key k's first field.
func stampTxn(w *ycsb.Workload, k int64, clk vclock.Clock) *query.Txn {
	return &query.Txn{Ops: []query.Op{{
		Kind: query.OpUpdate, Table: w.Table().ID, Row: schema.RowID(k), Cols: []schema.ColID{1},
		Vals: []types.Value{types.NewString(fmt.Sprintf("%020d", clk.Now().UnixNano()))},
	}}}
}

// freshClient is one writer and reader of the freshness probe.
type freshClient struct {
	w   *ycsb.Workload
	rng *rand.Rand
	clk vclock.Clock
}

func (c *freshClient) OLTP() *query.Txn   { return stampTxn(c.w, c.rng.Int63n(hotKeys), c.clk) }
func (c *freshClient) OLAP() *query.Query { return c.w.FreshnessQuery(hotKeys) }

func (c *freshClient) oldest(res exec.Rel) (time.Time, bool) {
	if res.NumRows() == 0 {
		return time.Time{}, false
	}
	ns, err := strconv.ParseInt(res.Tuples[0][0].Str(), 10, 64)
	if err != nil || ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}
