package main

import (
	"math/rand"

	"proteus/internal/cluster"
	"proteus/internal/schema"
	"proteus/internal/types"
	"proteus/internal/workload/chbench"
)

// olap-join: the five CH-benCHmark join shapes at ≥ 400 000 orderlines
// (40 districts × 2 520 loaded orders × 3–5 lines).
const joinOrdersPerDistrict = 2520

func buildJoin(env buildEnv) (*instance, error) {
	e := cluster.New(engineConfig(cluster.ModeColumnStore, env.clock))
	w, err := chbench.Setup(e, chConfig(joinOrdersPerDistrict))
	if err != nil {
		e.Close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(env.seed))
	qs := chQueries(w, rng)
	tabs := chTables(e, w.Tables())
	oracle, err := chOracles(tabs, qs, chJoinMix)
	if err != nil {
		e.Close()
		return nil, err
	}
	in := &instance{e: e}
	s := &stream{name: "client0", warm: warmOps(env.n), period: len(chJoinMix)}
	for _, qi := range chJoinMix {
		in.shapes = append(in.shapes, chQueryNames[qi])
	}
	for i := 0; i < s.warm+env.n; i++ {
		k := i % len(chJoinMix)
		s.ops = append(s.ops, op{q: qs[chJoinMix[k]], shape: k, want: oracle[chJoinMix[k]]})
	}
	in.streams = []*stream{s}
	// Read-only: every result was compared in-line; nothing is stored.
	in.verify = func() (int, error) { return 0, nil }
	lines := tabs[w.Tables().OrderLine.ID]
	in.probe = probeInputs{sql: chJoinSQL,
		txns: standInTxns(rng, w.Tables().OrderLine.ID, 3, types.NewFloat64(1), func(i int) schema.RowID { return lines[i].ID }, len(lines))}
	return in, nil
}
