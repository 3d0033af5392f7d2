// Command bench is the repository's benchmark: four fixed-work HTAP
// workloads driven through cluster.Engine's public calls, every number on
// exactly one cost plane. README.md explains the planes, the workloads and
// which layer metric should move which end-to-end metric.
//
//	go run -C bench . --workload oltp-rmw --seed 1 --seconds 18 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. Everything else goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// procStart anchors setup_s at process start.
var procStart = time.Now()

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	selfcheck int
	history   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&opt.seconds, "seconds", 18, "length the timed section is sized for (fixed work = calibrated rate × seconds)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, spans written to bench/out/")
	fs.IntVar(&opt.selfcheck, "selfcheck", 0, "run two sets of N repetitions and compare their medians against the bounds")
	fs.StringVar(&opt.history, "history", "", "append one JSON line per workload to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace != 0
	if opt.seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be at least 1 and there are no positional arguments")
		return 2
	}
	// The collector's pacing is part of what is measured; pin it so an
	// inherited GOGC cannot change cpu_ms_per_op or heap_mb_end.
	debug.SetGCPercent(100)

	var names []string
	if opt.workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := findWorkload(opt.workload); ok {
		names = []string{opt.workload}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q; have", opt.workload)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr, " all")
		return 2
	}

	if opt.selfcheck > 0 {
		return selfcheck(opt, names, stderr)
	}
	code := 0
	for i, name := range names {
		w, _ := findWorkload(name)
		// setup_s runs from process start for the workload the process was
		// started for; under "all" the later ones start their own clock.
		start := procStart
		if i > 0 {
			start = time.Now()
		}
		res, err := runWorkload(w, opt, start, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if opt.history != "" {
			if err := appendHistory(opt, w, res); err != nil {
				fmt.Fprintf(stderr, "bench: history: %v\n", err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct || res.Failed > 0 {
			code = 1
		}
	}
	return code
}

// runWorkload sets the workload up, runs its timed section once, checks the
// outputs, and returns the plane's metrics: end-to-end for an untraced run,
// per-layer for a traced one.
func runWorkload(w workload, opt options, start time.Time, log io.Writer) (*result, error) {
	env := buildEnv{seed: opt.seed, n: int(w.opsPerSec * float64(opt.seconds))}
	if env.n < 2*nSlices {
		env.n = 2 * nSlices
	}

	// Set-up, several times over; setup_s is the median, which one slow
	// page-fault storm or GC cycle cannot move. The last instance is the one
	// measured.
	var in *instance
	reps := w.setupReps
	if opt.trace {
		reps = 1 // a traced run does not report setup_s
	}
	setups := make([]time.Duration, 0, reps)
	repStart := start
	for rep := 0; rep < reps; rep++ {
		if in != nil {
			in.close()
			in = nil
			runtime.GC()
			repStart = time.Now()
		}
		var err error
		if in, err = w.build(env); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := warmUp(in); err != nil {
			in.close()
			return nil, err
		}
		runtime.GC()
		setups = append(setups, time.Since(repStart))
	}
	defer func() { in.close() }()

	// The cap is a net under a hang, not a gate: a slower engine shows in
	// ops_per_s long before it. Four times the sized length, because the box
	// the benchmark was built on was seen stalled by its host to under half
	// speed for tens of seconds, and a cap of twice failed those runs.
	wallCap := 4 * time.Duration(opt.seconds) * time.Second
	fmt.Fprintf(log, "# %s seed=%d: %d timed ops over %d stream(s), set-up %v, op list %s\n",
		w.name, opt.seed, in.timedOps(), len(in.streams), setups, hashOps(in.streams)[:12])

	if opt.trace {
		return runTraced(w, opt, in, wallCap, log)
	}

	run := runSection(in, wallCap, nil, -1, nil)
	heapMB := heapMBAfterGC()
	checked, verr := in.verify()

	res := newResult(endToEnd)
	res.Attempted, res.Failed = run.attempted, run.failed
	res.Correct = run.failed == 0 && verr == nil
	if run.firstErr != nil {
		fmt.Fprintf(log, "# first failed operation: %v\n", run.firstErr)
	}
	if verr != nil {
		fmt.Fprintf(log, "# output check failed: %v\n", verr)
	}
	sum := summarize(in, run)
	res.set("setup_s", medianDur(setups).Seconds())
	res.setEndToEnd(sum)
	res.set("heap_mb_end", heapMB)
	fmt.Fprintf(log, "# outputs: %d operation results and %d stored values checked\n", run.attempted-run.failed, checked)
	printMetrics(log, res, endToEnd)
	fmt.Fprintf(log, "# ungated (per-layer in the traced run): op_p95 %.4f ms, query_p95 %.4f ms, late_over_early %.4f\n",
		sum.opP95, sum.queryP95, sum.lateOverEarly)
	fmt.Fprintf(log, "# ops/s by slice: %.1f\n", sliceRates(run.merged()))
	return res, nil
}

// summary is what one timed section boils down to.
type summary struct {
	opsPerS                          float64
	opP50, opP95, queryP50, queryP95 float64 // ms
	cpuMs, allocs, netMsgs, netBytes float64 // per completed operation
	lateOverEarly                    float64
}

// summarize derives the section's numbers. Latency quantiles are balanced
// over shapes: the quantile of each shape's samples, averaged over the
// shapes the stream rotates through. A plain quantile of the mixture sits
// on the boundary between two shapes' clusters and jumps when either moves.
func summarize(in *instance, run *timedRun) summary {
	all := run.merged()
	done := float64(len(all))
	if done == 0 {
		return summary{}
	}
	primary, queries := splitClasses(in, all)
	sum := summary{
		opsPerS:  done / run.wall.Seconds(),
		opP50:    ms(balancedQuantile(primary, 0.50)),
		opP95:    ms(balancedQuantile(primary, 0.95)),
		queryP50: ms(balancedQuantile(queries, 0.50)),
		queryP95: ms(balancedQuantile(queries, 0.95)),
		cpuMs:    ms(run.cpu) / done,
		allocs:   float64(run.mallocs) / done,
		netMsgs:  float64(run.msgs) / done,
		netBytes: float64(run.bytes) / done,
	}
	if in.openLoop() {
		// First-fifth over last-fifth median latency of the transaction
		// stream, in issue order.
		sum.lateOverEarly = earlyOverLateLatency(run.samples[0])
	} else {
		sum.lateOverEarly = lateOverEarly(all)
	}
	return sum
}

// splitClasses separates the samples of the primary operation — the
// transaction wherever the workload has one — from those of analytical
// queries. A single-class workload has one latency; there the queries are
// the primary samples again, so no query_* metric is ever 0 (README.md,
// "End-to-end metrics").
func splitClasses(in *instance, all []sample) (primary, queries []sample) {
	queryOnly := !in.hasTxns()
	for _, s := range all {
		if s.query {
			queries = append(queries, s)
		}
		if !s.query || queryOnly {
			primary = append(primary, s)
		}
	}
	if len(queries) == 0 {
		queries = primary
	}
	return primary, queries
}

// setEndToEnd stores the gated metrics (all but setup_s and heap_mb_end,
// which the section does not measure).
func (r *result) setEndToEnd(sum summary) {
	r.set("ops_per_s", sum.opsPerS)
	r.set("op_p50_ms", sum.opP50)
	r.set("query_p50_ms", sum.queryP50)
	r.set("cpu_ms_per_op", sum.cpuMs)
	r.set("allocs_per_op", sum.allocs)
	r.set("net_msgs_per_op", sum.netMsgs)
	r.set("net_bytes_per_op", sum.netBytes)
}

func printMetrics(w io.Writer, res *result, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-38s %14.4f %s\n", d.Name, res.get(d.Name), d.Unit)
	}
}
