package main

import (
	"context"
	"fmt"
	"math/rand"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// oltp-rmw: the paper's transactional YCSB (§6.1) on a static row store.
const (
	oltpRows       = 40000
	oltpFields     = 10
	oltpFieldBytes = 16
	oltpPartitions = 8
	oltpKeysPerTxn = 10
	oltpZipfS      = 1.2
	oltpClients    = 2
	// oltpScramble is coprime to oltpRows, so rank → rank×oltpScramble mod
	// oltpRows is a permutation: zipf's hot ranks land on keys spread over
	// every partition instead of piling into partition 0.
	oltpScramble = 7919
)

const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func randString(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

// cell addresses one stored value.
type cell struct {
	table schema.TableID
	row   schema.RowID
	col   schema.ColID
}

func buildOLTP(env buildEnv) (*instance, error) {
	e := cluster.New(engineConfig(cluster.ModeRowStore, env.clock))
	cols := []schema.Column{{Name: "ykey", Kind: types.KindInt64}}
	for f := 0; f < oltpFields; f++ {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("field%d", f), Kind: types.KindString, AvgSize: oltpFieldBytes})
	}
	tbl, err := e.CreateTable(cluster.TableSpec{
		Name: "usertable", Cols: cols, MaxRows: oltpRows, Partitions: oltpPartitions,
		// Striped, not contiguous: neighbouring key ranges alternate sites,
		// so a 10-key transaction almost always spans both.
		PlaceAt: func(p int) simnet.SiteID { return simnet.SiteID(p % 2) },
	})
	if err != nil {
		e.Close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(env.seed))
	rows := make([]schema.Row, oltpRows)
	// stored tracks the value every cell must hold: the loaded value, then
	// the last one a transaction of the op list writes. Clients own
	// disjoint key stripes (key mod clients), so "last" is well defined
	// without ordering the clients against each other.
	stored := make(map[cell]types.Value, oltpRows)
	for i := range rows {
		vals := make([]types.Value, 0, oltpFields+1)
		vals = append(vals, types.NewInt64(int64(i)))
		for f := 0; f < oltpFields; f++ {
			vals = append(vals, types.NewString(randString(rng, oltpFieldBytes)))
		}
		rows[i] = schema.Row{ID: schema.RowID(i), Vals: vals}
	}
	if err := e.LoadRows(context.Background(), tbl.ID, rows); err != nil {
		e.Close()
		return nil, err
	}

	// A row-format replica of every partition at the other site puts redo
	// polling and apply (and, for reads routed to a replica, the session
	// freshness wait) on this workload's path.
	for _, m := range e.Dir.TablePartitions(tbl.ID) {
		if err := e.AddReplicaOp(m.ID, 1-m.Master().Site, storage.DefaultRowLayout()); err != nil {
			e.Close()
			return nil, err
		}
	}

	in := &instance{e: e, shapes: []string{"rmw10"}}
	per := env.n / oltpClients
	for c := 0; c < oltpClients; c++ {
		r := rand.New(rand.NewSource(env.seed<<8 + int64(c) + 1))
		z := rand.NewZipf(r, oltpZipfS, 1, oltpRows/oltpClients-1)
		s := &stream{name: fmt.Sprintf("client%d", c), warm: warmOps(per), period: 1}
		for i := 0; i < s.warm+per; i++ {
			field := schema.ColID(1 + r.Intn(oltpFields))
			seen := make(map[int64]bool, oltpKeysPerTxn)
			o := op{txn: &query.Txn{Ops: make([]query.Op, 0, 2*oltpKeysPerTxn)}}
			for len(seen) < oltpKeysPerTxn {
				// The stripe index is scrambled, then mapped into the
				// client's stripe.
				idx := int64(z.Uint64()) * oltpScramble % (oltpRows / oltpClients)
				key := idx*oltpClients + int64(c)
				if seen[key] {
					continue
				}
				seen[key] = true
				at := cell{tbl.ID, schema.RowID(key), field}
				cur, ok := stored[at]
				if !ok {
					cur = rows[key].Vals[field]
				}
				next := types.NewString(randString(r, oltpFieldBytes))
				stored[at] = next
				o.wantReads = append(o.wantReads, cur)
				o.txn.Ops = append(o.txn.Ops,
					query.Op{Kind: query.OpRead, Table: tbl.ID, Row: at.row, Cols: []schema.ColID{field}},
					query.Op{Kind: query.OpUpdate, Table: tbl.ID, Row: at.row, Cols: []schema.ColID{field}, Vals: []types.Value{next}},
				)
			}
			s.ops = append(s.ops, o)
		}
		in.streams = append(in.streams, s)
	}
	in.describeTxns()
	in.verify = func() (int, error) {
		if err := readBack(e, stored); err != nil {
			return 0, err
		}
		return len(stored), waitReplicasDrained(e)
	}
	in.probe.queries = []*query.Query{{Root: &query.AggNode{
		Child: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0}},
		Aggs:  []exec.AggSpec{{Func: exec.AggCount}},
	}}}
	for _, o := range in.streams[0].ops[0].txn.Ops {
		if o.Kind == query.OpRead {
			in.probe.sql = append(in.probe.sql, fmt.Sprintf("SELECT field%d FROM usertable WHERE ykey = %d", o.Cols[0]-1, o.Row))
		} else {
			in.probe.sql = append(in.probe.sql, fmt.Sprintf("UPDATE usertable SET field%d = '%s' WHERE id = %d", o.Cols[0]-1, o.Vals[0].S, o.Row))
		}
	}
	return in, nil
}
