package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"proteus/internal/exec"
	"proteus/internal/scenario"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/vclock"
)

// counters is the C side of the per-layer metrics: a snapshot of numbers
// the engine already keeps, read through exported accessors. Two snapshots
// bracket the timed section; the metrics are their difference.
type counters struct {
	obs                   map[string]int64 // Engine.Obs counters
	planHits, planMisses  int64
	applied               int64 // Σ Replicator.Applied
	diskReads, diskWrites int64 // Σ site device counters
	maintRows             int64 // Σ siteN.maintain.rows
	batch                 storage.BatchStats
	join                  exec.JoinStats
}

func readCounters(in *instance) counters {
	e := in.e
	c := counters{obs: e.Obs.Snapshot().Counters, batch: storage.ReadBatchStats(), join: exec.ReadJoinStats()}
	c.planHits, c.planMisses = e.Planner.Plans.Stats()
	for _, s := range e.Sites {
		c.applied += s.Repl.Applied()
		r, w := s.Dev.Counters()
		c.diskReads += r
		c.diskWrites += w
		c.maintRows += c.obs[fmt.Sprintf("site%d.maintain.rows", s.ID)]
	}
	return c
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// sliceSampler collects the counters that are sampled, not summed: lock
// queue lengths and replica lag at the end of each op-count slice.
type sliceSampler struct {
	in        *instance
	mu        sync.Mutex
	lockSeen  int64
	lockBusy  int64
	lagSample []int64 // records not yet applied, one per replica per slice end
}

func (s *sliceSampler) sample() {
	e := s.in.e
	var seen, busy int64
	var lags []int64
	for _, m := range e.Dir.All() {
		waiters, _ := e.Locks.Contention(m.ID)
		seen++
		if waiters > 0 {
			busy++
		}
		for _, r := range m.Replicas() {
			lags = append(lags, e.Sites[int(r.Site)].Repl.Lag(m.ID))
		}
	}
	s.mu.Lock()
	s.lockSeen += seen
	s.lockBusy += busy
	s.lagSample = append(s.lagSample, lags...)
	s.mu.Unlock()
}

// runTraced is the traced run: the same timed section with a span around
// every other rotation of client calls and per-slice sampling, engine
// counters read on both sides of it, then the probes, each inside a span.
// It reports the per-layer metrics and writes the spans to
// bench/out/trace-<workload>.json.
func runTraced(w workload, opt options, in *instance, wallCap time.Duration, log io.Writer) (*result, error) {
	res := newResult(perLayer)
	tr := newTracer(in)
	sampler := &sliceSampler{in: in}

	res.set("txn.deps_close_us_start", depsCloseProbe(in))
	c0 := readCounters(in)
	runSpan := tr.begin("timed-section", -1)
	run := runSection(in, wallCap, tr, runSpan, sampler.sample)
	tr.end(runSpan)
	c1 := readCounters(in)
	res.set("txn.deps_close_us_end", depsCloseProbe(in))

	checked, verr := in.verify()
	res.Attempted, res.Failed = run.attempted, run.failed
	res.Correct = run.failed == 0 && verr == nil
	if run.firstErr != nil {
		fmt.Fprintf(log, "# first failed operation: %v\n", run.firstErr)
	}
	if verr != nil {
		fmt.Fprintf(log, "# output check failed: %v\n", verr)
	}
	fmt.Fprintf(log, "# outputs: %d operation results and %d stored values checked\n", run.attempted-run.failed, checked)

	// The traced section's own summary: the three ungated end-to-end
	// readings are reported from it, the rest feed the derived metrics.
	sum := summarize(in, run)
	res.set("op_p95_ms", sum.opP95)
	res.set("query_p95_ms", sum.queryP95)
	res.set("late_over_early", sum.lateOverEarly)
	rows := fillCounters(res, in, run, c0, c1, sampler)

	probes := &probeRun{res: res, tr: tr, parent: tr.begin("probes", -1)}
	if err := workloadProbes(probes, in); err != nil {
		return nil, err
	}
	if err := fixtureProbes(probes, opt.seed); err != nil {
		return nil, err
	}
	if err := modelProbes(probes, w, opt, in); err != nil {
		return nil, err
	}
	tr.end(probes.parent)

	attributed := fillSelf(res, in, sum, rows)
	fmt.Fprintf(log, "# traced run: op_p50 %.4f ms = %.4f ms attributed to probed layers + %.4f ms self (%.0f %% unattributed); ops/s %.1f\n",
		sum.opP50, attributed, res.get("cluster.self_ms_per_op"),
		100*res.get("cluster.self_ms_per_op")/sum.opP50, sum.opsPerS)
	printMetrics(log, res, perLayer)
	path, err := writeTrace(w.name, tr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# spans written to %s\n", path)
	return res, nil
}

// scanVolume is how many rows an average query of the section scanned and
// kept, from the batch layer's counters.
type scanVolume struct{ scanned, selected float64 }

// fillCounters derives the C metrics from the two snapshots.
func fillCounters(res *result, in *instance, run *timedRun, c0, c1 counters, sampler *sliceSampler) scanVolume {
	d := func(name string) int64 { return c1.obs[name] - c0.obs[name] }
	var txns, queries int64
	for _, s := range run.merged() {
		if s.query {
			queries++
		} else {
			txns++
		}
	}
	ops := txns + queries

	res.set("admission.shed_ratio", ratio(d("admission.shed"), d("admission.shed")+d("admission.admitted")))
	hits, misses := c1.planHits-c0.planHits, c1.planMisses-c0.planMisses
	res.set("plan.cache_hit_ratio", ratio(hits, hits+misses))
	res.set("txn.lock_contended_ratio", ratio(sampler.lockBusy, sampler.lockSeen))
	res.set("cluster.commit_flushes_per_txn", ratio(d("commit.flushes"), txns))
	res.set("cluster.commit_group_size", ratio(d("commit.flushed_records"), d("commit.flushes")))
	res.set("cluster.morsels_per_query", ratio(d("exec.morsels.scheduled"), queries))
	res.set("cluster.morsels_pruned_ratio", ratio(d("exec.morsels.pruned"), d("exec.morsels.pruned")+d("exec.morsels.scheduled")))
	res.set("cluster.scan_yields_per_query", ratio(d("admission.scan.preempt_yields"), queries))
	res.set("cluster.retries_per_op", ratio(d("faults.retries"), ops))
	res.set("cluster.timeouts", float64(d("faults.timeouts")))
	res.set("redolog.appends_per_txn", ratio(d("redolog.appends"), txns))
	res.set("replication.applied_per_txn", ratio(c1.applied-c0.applied, txns))
	sort.Slice(sampler.lagSample, func(i, j int) bool { return sampler.lagSample[i] < sampler.lagSample[j] })
	res.set("replication.lag_records_p95", float64(quantile(sampler.lagSample, 0.95)))
	res.set("partition.maint_rows_per_s", float64(c1.maintRows-c0.maintRows)/run.wall.Seconds())
	res.set("storage.batch_pool_hit_ratio", ratio(c1.batch.PoolHits-c0.batch.PoolHits, c1.batch.PoolGets-c0.batch.PoolGets))
	res.set("exec.rfilter_pass_ratio", ratio(c1.join.BloomPassed-c0.join.BloomPassed, c1.join.BloomTested-c0.join.BloomTested))
	res.set("exec.join_spill_bytes_per_op", ratio(c1.join.SpillBytes-c0.join.SpillBytes, ops))
	res.set("disksim.reads_per_op", ratio(c1.diskReads-c0.diskReads, ops))
	res.set("disksim.writes_per_op", ratio(c1.diskWrites-c0.diskWrites, ops))

	// The modelled-latency reading of the end-to-end message and byte
	// counts, at simnet's default link.
	link := simnet.DefaultConfig()
	wire := float64(run.msgs)*us(link.BaseLatency) + float64(run.bytes)/link.BytesPerSecond*1e6
	res.set("simnet.wire_us_per_op", wire/float64(max(ops, 1)))

	// State at the end of the section.
	e := in.e
	var retained int64
	for _, pid := range e.Broker.Topics() {
		retained += e.Broker.Retained(pid)
	}
	res.set("redolog.retained_end", float64(retained))
	var colBytes, colRows, deltaRows int64
	for _, s := range e.Sites {
		for _, p := range s.Partitions() {
			if p.Layout().Format == storage.ColumnFormat {
				st := p.Stats()
				colBytes, colRows, deltaRows = colBytes+int64(st.Bytes), colRows+int64(st.Rows), deltaRows+int64(st.DeltaRows)
			}
		}
	}
	res.set("colstore.bytes_per_row", ratio(colBytes, colRows))
	res.set("colstore.delta_rows_end", float64(deltaRows))

	// The run's own shape. Tracing overhead: median latency of the primary
	// operations run without a span over that of those run with one (the
	// open loop's few queries per shape would only add noise).
	var with, without []sample
	primary, _ := splitClasses(in, run.merged())
	for _, s := range primary {
		if s.traced {
			with = append(with, s)
		} else {
			without = append(without, s)
		}
	}
	if t := balancedQuantile(with, 0.5); t > 0 {
		res.set("bench.trace_overhead_ratio", float64(balancedQuantile(without, 0.5))/float64(t))
	}
	res.set("bench.gen_late_p95_ms", ms(quantile(sortedCopy(run.lateness), 0.95)))
	rates := sliceRates(run.merged())
	sort.Float64s(rates)
	res.set("bench.slice_min_ops_per_s", rates[0])
	res.set("bench.slice_max_ops_per_s", rates[len(rates)-1])
	res.set("bench.parts_per_txn", in.partsPerTxn)
	res.set("bench.cross_site_share", in.crossSiteShare)
	return scanVolume{
		scanned:  ratio(c1.batch.RowsScanned-c0.batch.RowsScanned, queries),
		selected: ratio(c1.batch.RowsSelected-c0.batch.RowsSelected, queries),
	}
}

// fillSelf sets cluster.self_ms_per_op = op_p50_ms minus the P medians on
// the primary operation's path, each weighted by how often the operation
// calls it (from the op list and the run's counters). What is left is what
// cannot be attributed from outside the engine: where in-program tracing
// is needed next. It returns the attributed part in ms.
func fillSelf(res *result, in *instance, sum summary, rows scanVolume) float64 {
	ns := func(name string, calls float64) float64 { return res.get(name) * calls }
	attributed := ns("admission.admit_ns", 1) + ns("site.pool_dispatch_ns", 1) + ns("simnet.send_ns", sum.netMsgs)
	if !in.hasTxns() {
		// A query: plan, one pool dispatch per morsel, the filtering scan
		// over the rows its morsels cover and the aggregate over the rows
		// kept, the last two split over the site's scan workers. Join and
		// group-by kernels are left in self.
		workers := float64(in.e.Sites[0].ScanWorkers())
		attributed += ns("plan.query_us", 1) * 1e3
		attributed += ns("site.pool_dispatch_ns", res.get("cluster.morsels_per_query"))
		if rate := res.get("colstore.scan_rows_per_s.for"); rate > 0 {
			attributed += rows.scanned / rate * 1e9 / workers
		}
		attributed += ns("exec.agg_ns_per_row", rows.selected) / workers
	} else {
		var reads, writes float64
		txns := in.sampleTxns(256)
		for _, t := range txns {
			reads += float64(len(t.ReadSet()))
			writes += float64(len(t.WriteSet()))
		}
		reads, writes = reads/float64(len(txns)), writes/float64(len(txns))
		attributed += ns("plan.txn_us", 1) * 1e3
		// The tracker's cost midway through the section.
		attributed += (ns("txn.deps_close_us_start", 0.5) + ns("txn.deps_close_us_end", 0.5)) * 1e3
		attributed += ns("rowstore.get_ns", reads)
		attributed += ns("txn.lock_acquire_ns", 1)
		attributed += ns("txn.twopc_commit_us", 1) * 1e3
		attributed += ns("rowstore.update_ns", writes)
		attributed += ns("redolog.append_batch_ns_per_rec", res.get("redolog.appends_per_txn"))
	}
	res.set("cluster.self_ms_per_op", sum.opP50-attributed/1e6)
	return attributed / 1e6
}

// modelMaxTxns and modelMaxQueries bound the modelled-plane replay.
const (
	modelMaxTxns    = 2000
	modelMaxQueries = 200
)

//go:embed baseline_scenario.json
var baselineScenario []byte

// modelProbes are the modelled-plane latency readings, taken on vclock.Sim
// where network and disk charges advance virtual time: the head of the op
// list replayed by one client against a second engine built from the same
// seed with default simnet/disksim, and the repository's baseline scenario
// for the simulator's own speed.
func modelProbes(p *probeRun, w workload, opt options, in *instance) error {
	res := p.res
	p.step("model.replay", func() error {
		sim := vclock.NewSim(vclock.SimConfig{})
		defer sim.Stop()
		min, err := w.build(buildEnv{seed: opt.seed, n: in.timedOps(), clock: sim})
		if err != nil {
			return err
		}
		defer min.close()
		var txnLat, queryLat []time.Duration
		done := make(chan error, 1)
		go func() {
			defer vclock.Enter(sim)()
			done <- func() error {
				for _, s := range min.streams {
					sess := min.e.NewSession()
					for i := range s.ops {
						o := &s.ops[i]
						if (o.txn != nil && len(txnLat) >= modelMaxTxns) || (o.q != nil && len(queryLat) >= modelMaxQueries) {
							break
						}
						t0 := sim.Now()
						if _, err := o.exec(context.Background(), min.e, sess); err != nil {
							return fmt.Errorf("%s op %d: %w", s.name, i, err)
						}
						if d := sim.Since(t0); o.txn != nil {
							txnLat = append(txnLat, d)
						} else {
							queryLat = append(queryLat, d)
						}
					}
				}
				return nil
			}()
		}()
		if err := <-done; err != nil {
			return err
		}
		res.set("model.txn_p50_us", us(quantile(sortedCopy(txnLat), 0.50)))
		res.set("model.txn_p99_us", us(quantile(sortedCopy(txnLat), 0.99)))
		res.set("model.join_p50_us", us(quantile(sortedCopy(queryLat), 0.50)))
		return nil
	})
	p.step("vclock.baseline", func() error {
		spec, err := scenario.Parse(baselineScenario)
		if err != nil {
			return err
		}
		// A quarter of the scenario's virtual minute: the two ratios are
		// rates, and the full minute costs six wall seconds per traced run.
		spec.DurationMS /= 4
		spec.Assert = scenario.AssertSpec{}
		sim := vclock.NewSim(vclock.SimConfig{})
		defer sim.Stop()
		rep, err := scenario.Run(spec, scenario.Options{Clock: sim})
		if err != nil {
			return err
		}
		res.set("vclock.virtual_s_per_wall_s", rep.Virtual.Seconds()/rep.Wall.Seconds())
		res.set("vclock.idle_advance_ratio", ratio(int64(rep.SimIdleAdvances), int64(rep.SimAdvances)))
		return nil
	})
	return p.err
}

// outDir is bench/out, wherever the benchmark was started from: `go run -C
// bench .` runs in bench/, a built binary usually at the repository root.
func outDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// writeTrace writes the run's spans as one JSON document.
func writeTrace(workload string, tr *tracer) (string, error) {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, tr.all()})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}
