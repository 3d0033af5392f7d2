package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported number. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json lists exactly these names
// (bench_test.go checks the two stay in step) and result.set refuses
// anything else.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the store would see, each on exactly
// one plane: wall/CPU numbers are CPU plane (modelled latency zeroed),
// net_* are exact modelled-plane counts.
//
// The bounds follow the spread measured over runs of one commit on the
// 2-core VM the benchmark was built on (README.md, "Noise"), not the tighter
// values the issue hoped for: the box's speed drifts by 10-20 % over minutes,
// and a bound inside the noise rejects unchanged code. Times get the
// pipeline's cap of 0.25; counts get about three times their spread.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"net_msgs_per_op", "count", "lower", 0.05},
	{"net_bytes_per_op", "bytes", "lower", 0.05},
	{"heap_mb_end", "MB", "lower", 0.10},
}

// perLayer are the traced run's numbers. P = the benchmark calls the
// layer's public function directly; C = delta of a counter the engine
// already keeps. README.md maps each to the end-to-end metric it moves.
var perLayer = []metricDef{
	// Three end-to-end readings that do not repeat well enough to gate on
	// (README.md, "Noise"); the issue's rule moves such a metric here under
	// its own name.
	{Name: "op_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "late_over_early", Unit: "ratio", Better: "higher"},
	{Name: "admission.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "admission.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower"},
	{Name: "plan.txn_us", Unit: "us", Better: "lower"},
	{Name: "plan.query_us", Unit: "us", Better: "lower"},
	{Name: "plan.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "txn.lock_acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "txn.lock_contended_ratio", Unit: "ratio", Better: "lower"},
	{Name: "txn.deps_close_us_start", Unit: "us", Better: "lower"},
	{Name: "txn.deps_close_us_end", Unit: "us", Better: "lower"},
	{Name: "txn.twopc_commit_us", Unit: "us", Better: "lower"},
	{Name: "cluster.commit_flushes_per_txn", Unit: "count", Better: "lower"},
	{Name: "cluster.commit_group_size", Unit: "count", Better: "higher"},
	{Name: "cluster.morsels_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.morsels_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.scan_yields_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.retries_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.timeouts", Unit: "count", Better: "lower"},
	{Name: "cluster.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "redolog.append_ns", Unit: "ns", Better: "lower"},
	{Name: "redolog.append_batch_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "redolog.poll_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "redolog.appends_per_txn", Unit: "count", Better: "lower"},
	{Name: "redolog.retained_end", Unit: "count", Better: "lower"},
	{Name: "replication.apply_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "replication.applied_per_txn", Unit: "count", Better: "lower"},
	{Name: "replication.lag_records_p95", Unit: "count", Better: "lower"},
	{Name: "rowstore.get_ns", Unit: "ns", Better: "lower"},
	{Name: "rowstore.update_ns", Unit: "ns", Better: "lower"},
	{Name: "rowstore.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "rowstore.scan_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "partition.maintain_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.maint_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "partition.change_layout_ms.row2col", Unit: "ms", Better: "lower"},
	{Name: "partition.change_layout_ms.col2row", Unit: "ms", Better: "lower"},
	{Name: "colstore.scan_rows_per_s.plain", Unit: "1/s", Better: "higher"},
	{Name: "colstore.scan_rows_per_s.dict", Unit: "1/s", Better: "higher"},
	{Name: "colstore.scan_rows_per_s.for", Unit: "1/s", Better: "higher"},
	{Name: "colstore.scan_rows_per_s.rle", Unit: "1/s", Better: "higher"},
	{Name: "colstore.disk_scan_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "colstore.bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "colstore.delta_rows_end", Unit: "count", Better: "lower"},
	{Name: "storage.filter_ns_per_row.int", Unit: "ns", Better: "lower"},
	{Name: "storage.filter_ns_per_row.dict", Unit: "ns", Better: "lower"},
	{Name: "storage.filter_ns_per_row.for", Unit: "ns", Better: "lower"},
	{Name: "storage.batch_pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "zonemap.skip_ns", Unit: "ns", Better: "lower"},
	{Name: "exec.agg_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "exec.groupby_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "exec.join_build_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "exec.join_probe_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "exec.rfilter_pass_ratio", Unit: "ratio", Better: "lower"},
	{Name: "exec.join_spill_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "simnet.send_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.wire_us_per_op", Unit: "us", Better: "lower"},
	{Name: "disksim.reads_per_op", Unit: "count", Better: "lower"},
	{Name: "disksim.writes_per_op", Unit: "count", Better: "lower"},
	{Name: "site.pool_dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "cost.predict_ns", Unit: "ns", Better: "lower"},
	{Name: "asa.candidates_per_view", Unit: "count", Better: "lower"},
	{Name: "asa.evaluate_us", Unit: "us", Better: "lower"},
	{Name: "model.txn_p50_us", Unit: "virt_us", Better: "lower"},
	{Name: "model.txn_p99_us", Unit: "virt_us", Better: "lower"},
	{Name: "model.join_p50_us", Unit: "virt_us", Better: "lower"},
	{Name: "vclock.virtual_s_per_wall_s", Unit: "ratio", Better: "higher"},
	{Name: "vclock.idle_advance_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bench.gen_late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.slice_min_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bench.slice_max_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bench.parts_per_txn", Unit: "count", Better: "lower"},
	{Name: "bench.cross_site_share", Unit: "ratio", Better: "lower"},
}

// metric is one reported value, in the shape the result line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult pre-fills every metric of the plane being reported with 0, so
// a layer a workload does not exercise still prints its name.
func newResult(defs []metricDef) *result {
	r := &result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = metric{Unit: d.Unit}
	}
	return r
}

// set stores a measured value under a declared name.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("bench: metric " + name + " is not declared for this plane")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.Value = v
	r.Metrics[name] = m
}

func (r *result) get(name string) float64 { return r.Metrics[name].Value }

// quantile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule; 0 for an empty sample.
func quantile[T ~int64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func medianDur(d []time.Duration) time.Duration { return quantile(sortedCopy(d), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// balancedQuantile is the q-quantile of each shape's latencies, averaged
// over the shapes present.
func balancedQuantile(samples []sample, q float64) time.Duration {
	byShape := map[int][]time.Duration{}
	for _, s := range samples {
		byShape[s.shape] = append(byShape[s.shape], s.lat)
	}
	if len(byShape) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range byShape {
		sum += quantile(sortedCopy(d), q)
	}
	return sum / time.Duration(len(byShape))
}

// sample is one completed operation of the timed section.
type sample struct {
	lat    time.Duration // completion minus send (closed loop) or minus due (open loop)
	end    time.Duration // completion, as an offset from the section start
	query  bool          // analytical query (else transaction)
	shape  int           // index into the workload's shape table
	traced bool          // a span was recorded around it (traced run only)
}

// sortedEnds returns the samples' completion offsets in completion order.
func sortedEnds(samples []sample) []time.Duration {
	ends := make([]time.Duration, len(samples))
	for i, s := range samples {
		ends[i] = s.end
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	return ends
}

// nSlices is how many equal op-count slices the timed section is cut into.
const nSlices = 10

// sliceRates cuts samples (any order) into nSlices equal op-count slices by
// completion order and returns each slice's throughput in ops/s. Slice k
// spans from the completion of the last operation of slice k-1 (the
// section start for k = 0) to the completion of its own last operation.
func sliceRates(samples []sample) []float64 {
	ends := sortedEnds(samples)
	rates := make([]float64, 0, nSlices)
	prevEnd, prevIdx := time.Duration(0), 0
	for k := 1; k <= nSlices; k++ {
		idx := len(ends) * k / nSlices
		if idx == prevIdx {
			rates = append(rates, 0)
			continue
		}
		end := ends[idx-1]
		if span := end - prevEnd; span > 0 {
			rates = append(rates, float64(idx-prevIdx)/span.Seconds())
		} else {
			rates = append(rates, 0)
		}
		prevEnd, prevIdx = end, idx
	}
	return rates
}

// lateOverEarly is the closed-loop stationarity ratio: throughput of the
// last fifth of the operations over throughput of the first fifth. Equal
// op counts make it the ratio of the two spans.
func lateOverEarly(samples []sample) float64 {
	if len(samples) < nSlices {
		return 0
	}
	ends := sortedEnds(samples)
	fifth := len(ends) / 5
	early := ends[fifth-1]
	late := ends[len(ends)-1] - ends[len(ends)-fifth-1]
	if late <= 0 {
		return 0
	}
	return early.Seconds() / late.Seconds()
}

// earlyOverLateLatency is the open-loop stationarity ratio: median latency
// of the first fifth of the samples (in issue order) over the last fifth.
func earlyOverLateLatency(inOrder []sample) float64 {
	fifth := len(inOrder) / 5
	if fifth == 0 {
		return 0
	}
	late := balancedQuantile(inOrder[len(inOrder)-fifth:], 0.5)
	if late <= 0 {
		return 0
	}
	return float64(balancedQuantile(inOrder[:fifth], 0.5)) / float64(late)
}

// usage is the process cost snapshot taken on each side of the timed
// section.
type usage struct {
	cpu     time.Duration // user+sys, getrusage(RUSAGE_SELF)
	mallocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("bench: getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// heapMBAfterGC reports the live heap: the smallest of three readings, each
// after a forced collection, 20 ms apart. One reading can catch a background
// fold or checkpoint holding a partition-sized temporary.
func heapMBAfterGC() float64 {
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(20 * time.Millisecond)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		least = math.Min(least, float64(ms.HeapAlloc)/(1<<20))
	}
	return least
}
