package main

import (
	"context"
	"fmt"
	"math/rand"

	"proteus/internal/cluster"
	"proteus/internal/types"
	"proteus/internal/workload/chbench"
)

// htap-mixed: CH transactions beside the eight CH queries, open loop.
const (
	htapOrdersPerDistrict = 1000 // ≈ 160 000 orderlines
	// Offered rates, frozen: on the commit that introduced the benchmark
	// each generator is under 50 % busy at the end of the run, so neither
	// class's speed-up changes the load the other class sees.
	htapTxnRate   = 100.0
	htapQueryRate = 12.0
)

func buildHTAP(env buildEnv) (*instance, error) {
	e := cluster.New(engineConfig(cluster.ModeJanus, env.clock))
	fail := func(err error) (*instance, error) { e.Close(); return nil, err }
	w, err := chbench.Setup(e, chConfig(htapOrdersPerDistrict))
	if err != nil {
		return fail(err)
	}
	rng := rand.New(rand.NewSource(env.seed))
	qs := chQueries(w, rng)

	// The two generators split n in proportion to their rates.
	nTxn := int(float64(env.n) * htapTxnRate / (htapTxnRate + htapQueryRate))
	nQuery := env.n - nTxn

	// One CH client per warehouse, drawn round-robin by a single
	// generator: sequence numbers (order ids, history ids) are assigned at
	// generation, so the list is valid exactly when executed in order,
	// which one synchronous sender does.
	cfg := w.Config()
	clients := make([]*chbench.Client, cfg.Warehouses)
	for i := range clients {
		clients[i] = w.NewClient(i, rand.New(rand.NewSource(env.seed<<8+int64(i)+1)))
	}
	stored := map[cell]types.Value{}
	txns := &stream{name: "txn-gen", warm: warmOps(nTxn), rate: htapTxnRate, period: 1}
	for i := 0; i < txns.warm+nTxn; i++ {
		t := clients[i%len(clients)].OLTP()
		restamp(t, i)
		recordWrites(stored, t)
		txns.ops = append(txns.ops, op{txn: t, shape: 0})
	}
	// Queries run beside writes, so their answers move; they are checked
	// for errors in-line and against the oracle once writes have stopped
	// (verify below).
	queries := &stream{name: "query-gen", warm: warmOps(nQuery), rate: htapQueryRate, period: chbench.NumQueries}
	for i := 0; i < queries.warm+nQuery; i++ {
		k := i % chbench.NumQueries
		queries.ops = append(queries.ops, op{q: qs[k], shape: 1 + k})
	}
	in := &instance{e: e, streams: []*stream{txns, queries}, shapes: append([]string{"ch-txn"}, chQueryNames[:]...)}

	// Static routing: bind every query shape and a sample of transactions
	// to copies now, while the cost model is still its analytic bootstrap.
	// The planner caches those decisions, so later runs cannot fork on what
	// the model happened to learn first.
	for _, q := range qs {
		if _, err := e.Planner.PlanQuery(q); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < len(txns.ops) && i < 256; i++ {
		if _, err := e.Planner.PlanTxn(txns.ops[i].txn); err != nil {
			return fail(err)
		}
	}

	in.describeTxns()
	in.probe = probeInputs{sql: chMixedSQL}
	in.verify = func() (int, error) {
		if err := readBack(e, stored); err != nil {
			return 0, err
		}
		if err := waitReplicasDrained(e); err != nil {
			return 0, err
		}
		// With writes stopped and replicas drained, every query (served
		// from the column replicas) must equal the oracle over the row
		// masters' final contents.
		all := make([]int, chbench.NumQueries)
		for i := range all {
			all[i] = i
		}
		oracle, err := chOracles(chTables(e, w.Tables()), qs, all)
		if err != nil {
			return 0, err
		}
		sess := e.NewSession()
		for i, q := range qs {
			rel, err := e.ExecuteQuery(context.Background(), sess, q)
			if err == nil {
				err = relsMatch(rel, *oracle[i])
			}
			if err != nil {
				return 0, fmt.Errorf("final %s: %w", chQueryNames[i], err)
			}
		}
		return len(stored) + len(qs), nil
	}
	return in, nil
}
