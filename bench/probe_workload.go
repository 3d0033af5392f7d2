package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"proteus/internal/admission"
	"proteus/internal/asa"
	"proteus/internal/cost"
	"proteus/internal/forecast"
	"proteus/internal/metadata"
	"proteus/internal/partition"
	"proteus/internal/query"
	"proteus/internal/redolog"
	"proteus/internal/replication"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/sqlparse"
	"proteus/internal/storage"
	"proteus/internal/txn"
	"proteus/internal/types"
)

// probeInputs is what a workload hands the probes beside its op list.
type probeInputs struct {
	// sql is the SQL form of the workload's statements, for sqlparse.
	sql []string
	// txns and queries stand in where the op list has no operation of that
	// class, so that every layer probe has an input on every workload. They
	// address the workload's own tables and are only ever planned, locked
	// and logged by the probes, never executed.
	txns    []*query.Txn
	queries []*query.Query
}

// standInTxns builds 64 ten-row single-column update transactions over the
// given rows of a table.
func standInTxns(rng *rand.Rand, table schema.TableID, col schema.ColID, val types.Value, rowIDs func(i int) schema.RowID, nRows int) []*query.Txn {
	txns := make([]*query.Txn, 64)
	for i := range txns {
		t := &query.Txn{}
		for k := 0; k < 10; k++ {
			t.Ops = append(t.Ops, query.Op{Kind: query.OpUpdate, Table: table, Row: rowIDs(rng.Intn(nRows)),
				Cols: []schema.ColID{col}, Vals: []types.Value{val}})
		}
		txns[i] = t
	}
	return txns
}

// sampleTxns returns up to max transactions from the op lists, in order, or
// the stand-ins where there are none.
func (in *instance) sampleTxns(max int) []*query.Txn {
	var out []*query.Txn
	for _, s := range in.streams {
		for i := range s.ops {
			if s.ops[i].txn != nil && len(out) < max {
				out = append(out, s.ops[i].txn)
			}
		}
	}
	if out == nil {
		return in.probe.txns
	}
	return out
}

// distinctQueries returns each query object the op lists use, once, or the
// stand-ins where there are none.
func (in *instance) distinctQueries() []*query.Query {
	seen := map[*query.Query]bool{}
	var out []*query.Query
	for _, s := range in.streams {
		for i := range s.ops {
			if q := s.ops[i].q; q != nil && !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	if out == nil {
		return in.probe.queries
	}
	return out
}

// nopParticipant votes yes and does nothing: Coordinator.Commit over two of
// them costs the protocol's own fan-out and joins, nothing else.
type nopParticipant struct{}

func (nopParticipant) Prepare(uint64) error { return nil }
func (nopParticipant) Commit(uint64) error  { return nil }
func (nopParticipant) Abort(uint64) error   { return nil }

// depsCloseProbe times Engine.Deps.Close on a two-partition vector: the
// work snapshotFor does per transaction, which grows with every commit the
// tracker has recorded and never forgets.
func depsCloseProbe(in *instance) float64 {
	var pids []partition.ID
	for _, t := range in.sampleTxns(64) {
		tp, err := in.e.Planner.PlanTxn(t)
		if err == nil && len(tp.WritePIDs) >= 2 {
			pids = tp.WritePIDs[:2]
			break
		}
	}
	if pids == nil {
		return 0
	}
	return probeMedian(1, func() {
		vec := make(txn.VersionVector, 2)
		for _, pid := range pids {
			if m, ok := in.e.Dir.Get(pid); ok {
				if p, ok := in.e.Sites[int(m.Master().Site)].Partition(pid); ok {
					vec[pid] = p.Version()
				}
			}
		}
		in.e.Deps.Close(vec)
	}) / 1e3
}

// workloadProbes runs the probes that use the measured engine and its op
// list. It runs after the timed section and the output check, when the
// engine is idle.
func workloadProbes(p *probeRun, in *instance) error {
	e := in.e
	ctx := context.Background()
	txns := in.sampleTxns(256)
	queries := in.distinctQueries()
	res, step := p.res, p.step

	step("admission", func() error {
		pri := admission.PriorityOLTP
		if !in.hasTxns() {
			pri = admission.PriorityOLAP
		}
		var aerr error
		res.set("admission.admit_ns", probeMedian(100, func() {
			if err := e.Adm.Admit(ctx, admission.DefaultTenant, pri); err != nil {
				aerr = err
			}
		}))
		return aerr
	})

	step("sqlparse", func() error {
		var perr error
		i := 0
		res.set("sqlparse.parse_us", probeMedian(10, func() {
			if _, err := sqlparse.Parse(e.Catalog, in.probe.sql[i%len(in.probe.sql)]); err != nil {
				perr = fmt.Errorf("%q: %w", in.probe.sql[i%len(in.probe.sql)], err)
			}
			i++
		})/1e3)
		return perr
	})

	step("plan", func() error {
		var perr error
		i := 0
		res.set("plan.txn_us", probeMedian(10, func() {
			if _, err := e.Planner.PlanTxn(txns[i%len(txns)]); err != nil {
				perr = err
			}
			i++
		})/1e3)
		res.set("plan.query_us", probeMedian(10, func() {
			if _, err := e.Planner.PlanQuery(queries[i%len(queries)]); err != nil {
				perr = err
			}
			i++
		})/1e3)
		return perr
	})

	step("txn", func() error {
		var writeSets [][]partition.ID
		for _, t := range txns {
			tp, err := e.Planner.PlanTxn(t)
			if err != nil {
				return err
			}
			if len(tp.WritePIDs) > 0 {
				writeSets = append(writeSets, tp.WritePIDs)
			}
		}
		if len(writeSets) == 0 {
			return fmt.Errorf("no sampled transaction writes")
		}
		i := 0
		res.set("txn.lock_acquire_ns", probeMedian(10, func() {
			e.Locks.AcquireAll(nil, writeSets[i%len(writeSets)]).ReleaseAll()
			i++
		}))
		c := &txn.Coordinator{OnePhase: true}
		parts := []txn.Participant{nopParticipant{}, nopParticipant{}}
		var cerr error
		res.set("txn.twopc_commit_us", probeMedian(10, func() {
			if err := c.Commit(1, parts); err != nil {
				cerr = err
			}
		})/1e3)
		return cerr
	})

	step("redolog+replication", func() error { return logProbes(res, txns) })

	step("simnet+site", func() error {
		nw := simnet.New(simnet.Config{})
		var serr error
		res.set("simnet.send_ns", probeMedian(100, func() {
			if _, err := nw.Send(0, 1, 128); err != nil {
				serr = err
			}
		}))
		res.set("site.pool_dispatch_ns", probeMedian(10, func() {
			if err := e.Sites[0].RunOLTP(func() {}); err != nil {
				serr = err
			}
		}))
		return serr
	})

	step("cost+asa", func() error {
		feat := cost.ScanFeatures(50000, 64, 8, 0.1)
		res.set("cost.predict_ns", probeMedian(100, func() {
			e.Model.Predict(cost.OpScan, cost.ScanSeq, storage.DefaultColumnLayout(), feat)
		}))
		var views []asa.PartitionView
		for _, m := range e.Dir.All() {
			if v, ok := partitionView(in, m); ok {
				views = append(views, v)
			}
		}
		type evalCase struct {
			view asa.PartitionView
			cand asa.Candidate
		}
		var cases []evalCase
		for _, v := range views {
			for _, c := range asa.GenerateCandidates(v, asa.AllFlags(), len(e.Sites)) {
				cases = append(cases, evalCase{v, c})
			}
		}
		if len(cases) == 0 {
			return fmt.Errorf("no advisor candidates from %d partition views", len(views))
		}
		res.set("asa.candidates_per_view", float64(len(cases))/float64(len(views)))
		ev := &asa.Evaluator{Model: e.Model, Lambda: 3}
		i := 0
		res.set("asa.evaluate_us", probeMedian(10, func() {
			ev.Evaluate(cases[i%len(cases)].view, cases[i%len(cases)].cand)
			i++
		})/1e3)
		return nil
	})
	return p.err
}

// partitionView snapshots one partition the way the advisor would, from
// public accessors (5 s horizon, the advisor's default).
func partitionView(in *instance, m *metadata.PartitionMeta) (asa.PartitionView, bool) {
	e := in.e
	master := m.Master()
	p, ok := e.Sites[int(master.Site)].Partition(m.ID)
	if !ok {
		return asa.PartitionView{}, false
	}
	const horizon = 5.0
	rate := func(k forecast.AccessKind, w int) float64 { return m.Tracker.RecentRate(k, w) }
	rates := asa.AccessRates{
		Updates: rate(forecast.Update, 8) * horizon, PointReads: rate(forecast.PointRead, 8) * horizon,
		Scans: rate(forecast.Scan, 8) * horizon,
	}
	rates.Prob, rates.Delay = forecast.ArrivalEstimate(rates.Updates + rates.PointReads + rates.Scans)
	waiters, wait := e.Locks.Contention(m.ID)
	nCols := m.Bounds.NumCols()
	v := asa.PartitionView{
		PID: m.ID, Bounds: m.Bounds, Rows: p.Stats().Rows,
		RowBytes: max(e.Dir.AvgRowBytes(m.Bounds.Table, nil), 1),
		Master:   asa.ReplicaView{Site: master.Site, Layout: master.Layout},
		Rates:    rates,
		Ongoing: asa.AccessRates{Updates: rate(forecast.Update, 2), PointReads: rate(forecast.PointRead, 2),
			Scans: rate(forecast.Scan, 2), Prob: 1},
		ScanSelectivity: 1, AvgUpdateCols: max(1, nCols/3),
		ContentionWaiters: waiters, ContentionWait: wait,
		WriteHotCols: make([]bool, nCols), ReadHotCols: make([]bool, nCols),
		CoAccessSite: -1,
	}
	for _, r := range m.Replicas() {
		v.Replicas = append(v.Replicas, asa.ReplicaView{Site: r.Site, Layout: r.Layout})
	}
	return v, true
}

// logProbes times the redo log and the replicator on a private broker and
// a private replica. Records are shaped like the op list's writes: one per
// sampled transaction, carrying as many single-column update entries as the
// transaction has writes, re-keyed onto the replica's 4 096 rows.
func logProbes(res *result, txns []*query.Txn) error {
	const pid = partition.ID(1)
	kinds := []types.Kind{types.KindInt64, types.KindString}
	bounds := partition.Bounds{RowStart: 0, RowEnd: fixtureRows, ColStart: 0, ColEnd: 2}
	newReplica := func() (*partition.Partition, error) {
		p := partition.New(pid, bounds, kinds, storage.DefaultRowLayout(), zeroLatencyFactory())
		rows := make([]schema.Row, 4096)
		for i := range rows {
			rows[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{types.NewInt64(int64(i)), types.NewString("................")}}
		}
		return p, p.Load(rows, 1)
	}
	var shapes []redolog.Record
	for _, t := range txns {
		rec := redolog.Record{Partition: pid, Deps: map[partition.ID]uint64{2: 1}}
		for _, o := range t.Ops {
			if o.Kind == query.OpUpdate || o.Kind == query.OpInsert {
				rec.Entries = append(rec.Entries, redolog.Entry{
					Op: redolog.OpUpdate, Row: schema.RowID(int(o.Row) % 4096),
					Cols: []schema.ColID{1}, Vals: []types.Value{types.NewString("0123456789abcdef")},
				})
			}
		}
		if len(rec.Entries) > 0 {
			shapes = append(shapes, rec)
		}
	}
	if len(shapes) == 0 {
		return fmt.Errorf("no sampled transaction writes")
	}
	ver := uint64(1)
	next := func() redolog.Record {
		ver++
		rec := shapes[int(ver)%len(shapes)]
		rec.Version = ver
		return rec
	}

	b := redolog.NewBroker()
	b.CreateTopic(pid)
	res.set("redolog.append_ns", probeMedian(10, func() { b.Append(next()) }))
	batch := make([]redolog.Record, 16)
	res.set("redolog.append_batch_ns_per_rec", probeMedian(1, func() {
		for i := range batch {
			batch[i] = next()
		}
		b.AppendBatch(batch)
	})/16)
	end := b.EndOffset(pid)
	res.set("redolog.poll_ns_per_rec", probeMedian(1, func() { b.Poll(pid, 0, 0) })/float64(end))

	// Replicator: fill the topic with 1 000 records, time one PollOnce
	// (poll + apply), seven times.
	rb := redolog.NewBroker()
	rb.CreateTopic(pid)
	p, err := newReplica()
	if err != nil {
		return err
	}
	r := replication.New(rb, nil, 1, simnet.ASASite)
	r.Subscribe(pid, p, 0)
	ver = 1
	var rounds []time.Duration
	for round := 0; round < 7; round++ {
		for i := 0; i < 1000; i++ {
			rb.Append(next())
		}
		t0 := time.Now()
		n, err := r.PollOnce()
		d := time.Since(t0)
		if err != nil || n != 1000 {
			return fmt.Errorf("PollOnce applied %d of 1000 records: %v", n, err)
		}
		rounds = append(rounds, d)
	}
	res.set("replication.apply_ns_per_rec", float64(medianDur(rounds))/1000)
	return nil
}
