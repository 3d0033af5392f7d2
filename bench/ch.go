package main

import (
	"fmt"
	"math/rand"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/types"
	"proteus/internal/workload/chbench"
)

// chQueryNames labels chbench.Query's eight shapes in index order.
var chQueryNames = [chbench.NumQueries]string{"q1", "q6", "q14", "q4", "q12", "q3", "q7", "q19"}

// chJoinMix indexes the five join shapes olap-join rotates, in the order
// the issue lists them: q14, q12, q3, q7, q19.
var chJoinMix = []int{2, 4, 5, 6, 7}

// chConfig sizes a CH database: 4 warehouses (2 per site), 10 districts
// each, and room for the orders the run inserts.
func chConfig(ordersPerDistrict int) chbench.Config {
	cfg := chbench.DefaultConfig()
	cfg.Warehouses = 4
	cfg.DistrictsPerW = 10
	cfg.Items = 2000
	cfg.LoadedOrdersPerDistrict = ordersPerDistrict
	cfg.MaxOrdersPerDistrict = ordersPerDistrict + 1000
	return cfg
}

// chTables extracts the tables the eight queries read.
func chTables(e *cluster.Engine, t chbench.Tables) oracleTables {
	tabs := oracleTables{}
	for _, tbl := range []*schema.Table{t.OrderLine, t.Orders, t.Item, t.Customer, t.Stock} {
		tabs[tbl.ID] = tableRows(e, tbl.ID)
	}
	return tabs
}

// chQueries builds the eight queries once. The only random constant (q19's
// price band) comes from rng, i.e. from the seed, and then stays fixed for
// the run: the plan cache keys on shape, not constants (README.md,
// "Findings").
func chQueries(w *chbench.Workload, rng *rand.Rand) []*query.Query {
	qs := make([]*query.Query, chbench.NumQueries)
	for i := range qs {
		qs[i] = w.Query(i, rng)
	}
	return qs
}

// chOracles answers the given queries from extracted rows.
func chOracles(tabs oracleTables, qs []*query.Query, which []int) (map[int]*exec.Rel, error) {
	out := make(map[int]*exec.Rel, len(which))
	for _, qi := range which {
		rel, err := evalOracle(tabs, qs[qi])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", chQueryNames[qi], err)
		}
		out[qi] = rel
	}
	return out, nil
}

// chStampCutoff separates the builders' time.Now() stamps from the loaded
// database's 2021-based dates (and from the zero time of undelivered
// lines).
var chStampCutoff = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC).UnixMicro()

// chStampBase is where the deterministic stamps start.
var chStampBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixMicro()

// restamp replaces the wall-clock stamps the CH transaction builders put
// into a transaction with seq-derived ones, so the op list is a function
// of the seed alone.
func restamp(t *query.Txn, seq int) {
	for i := range t.Ops {
		for j, v := range t.Ops[i].Vals {
			if v.K == types.KindTime && v.I > chStampCutoff {
				t.Ops[i].Vals[j] = types.NewTimeMicros(chStampBase + int64(seq)*1_000_000)
			}
		}
	}
}

// recordWrites folds a transaction's writes into the last-acked-value map.
func recordWrites(stored map[cell]types.Value, t *query.Txn) {
	for _, o := range t.Ops {
		switch o.Kind {
		case query.OpInsert:
			for c, v := range o.Vals {
				stored[cell{o.Table, o.Row, schema.ColID(c)}] = v
			}
		case query.OpUpdate:
			for i, c := range o.Cols {
				stored[cell{o.Table, o.Row, c}] = o.Vals[i]
			}
		}
	}
}

// chJoinSQL is the SQL form of the join shapes the parser can express
// (two-table joins; q7's three-way join has none).
var chJoinSQL = []string{
	"SELECT SUM(ol_amount), COUNT(*) FROM orderline JOIN item ON ol_i_id = i_id WHERE i_data >= 'PR' AND i_data < 'PS'",
	"SELECT o_carrier_id, COUNT(*), SUM(ol_quantity) FROM orderline JOIN orders ON ol_o_id = o_id WHERE o_carrier_id >= 1 GROUP BY o_carrier_id",
	"SELECT o_c_id, SUM(o_ol_cnt) FROM orders JOIN customer ON o_c_id = c_id WHERE o_carrier_id < 0 GROUP BY o_c_id",
	"SELECT SUM(ol_amount) FROM orderline JOIN item ON ol_i_id = i_id WHERE ol_quantity >= 1 AND ol_quantity <= 10 AND i_price >= 10 AND i_price <= 50",
}

// chMixedSQL adds the scan shapes and two of the transactions' writes.
var chMixedSQL = append([]string{
	"SELECT ol_number, SUM(ol_quantity), SUM(ol_amount), AVG(ol_amount), COUNT(*) FROM orderline GROUP BY ol_number",
	"SELECT SUM(ol_amount) FROM orderline WHERE ol_quantity >= 1 AND ol_quantity <= 100000",
	"SELECT o_carrier_id, COUNT(*) FROM orders WHERE o_carrier_id >= 0 GROUP BY o_carrier_id",
	"UPDATE warehouse SET w_ytd = 4200.5 WHERE id = 1",
	"UPDATE customer SET c_balance = -10.5, c_ytd = 10.5 WHERE id = 17",
}, chJoinSQL...)
