// Package harness drives HTAP experiments the way the paper's OLTPBench
// runs do (§6.1): a set of clients each submitting either OLTP or OLAP
// requests in a configured mix, measured either to completion (fixed work)
// or for a fixed duration, with per-class latency/throughput statistics,
// a per-interval timeline (for the performance-over-time figures), and
// confidence intervals across repeated runs.
package harness

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/vclock"
)

// Client produces one logical client's requests. Implementations carry
// client-local RNG state.
type Client interface {
	OLTP() *query.Txn
	OLAP() *query.Query
}

// ClientFactory builds the i-th client.
type ClientFactory func(i int, r *rand.Rand) Client

// Mix is an HTAP client mix (§6.1): every client interleaves OLTPPerOLAP
// transactions with each OLAP query.
type Mix struct {
	Name        string
	OLTPPerOLAP int
}

// The three standard mixes for YCSB-style runs.
var (
	OLTPHeavy = Mix{Name: "oltp-heavy", OLTPPerOLAP: 10}
	Balanced  = Mix{Name: "balanced", OLTPPerOLAP: 6}
	OLAPHeavy = Mix{Name: "olap-heavy", OLTPPerOLAP: 3}
)

// Config parameterizes one run.
type Config struct {
	Clients int
	Mix     Mix
	// RoundsPerClient is the OLAP count per client in completion runs.
	RoundsPerClient int
	// Duration, when > 0, runs a timed experiment instead.
	Duration time.Duration
	// TimelineBucket aggregates the over-time series (0 disables).
	TimelineBucket time.Duration
	Seed           int64
	// OnRound, when set, is invoked after every client round (for
	// mid-run workload shifts).
	OnRound func(client, round int)
	// Clock is the time source the run is measured and bounded on; nil
	// means the wall clock. Pass the engine's virtual clock so Duration,
	// per-op latencies and timeline buckets are all in virtual time.
	Clock vclock.Clock
}

// Bucket is one timeline interval.
type Bucket struct {
	Start   time.Duration // offset from run start
	OLTP    int64
	OLAP    int64
	OLTPLat time.Duration // average within the bucket
	OLAPLat time.Duration
}

// Result aggregates one run. Latency statistics come from the engine's
// lock-free latency recorders (cluster.Stats.Quantiles), which Run resets
// at the start so the windows cover exactly this run.
type Result struct {
	Wall       time.Duration
	OLTPCount  int64
	OLAPCount  int64
	Errors     int64
	OLTPLatAvg time.Duration
	OLTPLatP50 time.Duration
	OLTPLatP95 time.Duration
	OLTPLatP99 time.Duration
	OLAPLatAvg time.Duration
	OLAPLatP50 time.Duration
	OLAPLatP95 time.Duration
	OLAPLatP99 time.Duration
	Timeline   []Bucket
	// LastOLAP carries the final OLAP result observed (freshness checks).
	LastOLAP exec.Rel
}

// OLTPThroughput reports committed transactions per second.
func (r Result) OLTPThroughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.OLTPCount) / r.Wall.Seconds()
}

// OLAPThroughput reports queries per second.
func (r Result) OLAPThroughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.OLAPCount) / r.Wall.Seconds()
}

type sample struct {
	at   time.Duration
	lat  time.Duration
	olap bool
}

// Run executes one experiment against an engine.
func Run(e *cluster.Engine, factory ClientFactory, cfg Config) Result {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Mix.OLTPPerOLAP <= 0 {
		cfg.Mix.OLTPPerOLAP = 1
	}
	if cfg.RoundsPerClient <= 0 && cfg.Duration <= 0 {
		cfg.RoundsPerClient = 10
	}

	clk := vclock.OrWall(cfg.Clock)

	var mu sync.Mutex
	var samples []sample
	var errs int64
	var lastOLAP exec.Rel

	// Start each run from clean engine counters so the latency windows and
	// class stats cover exactly this run (warm-up runs are separate Runs).
	e.Stats().Reset()

	start := clk.Now()
	deadline := time.Time{}
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		vclock.Go(clk, func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			client := factory(c, r)
			sess := e.NewSession()
			var local []sample
			round := 0
			for {
				if cfg.Duration > 0 {
					if clk.Now().After(deadline) {
						break
					}
				} else if round >= cfg.RoundsPerClient {
					break
				}
				// One round: 1 OLAP + OLTPPerOLAP transactions.
				t0 := clk.Now()
				res, err := e.ExecuteQuery(context.Background(), sess, client.OLAP())
				if err != nil {
					atomic.AddInt64(&errs, 1)
				} else {
					local = append(local, sample{at: t0.Sub(start), lat: clk.Since(t0), olap: true})
					mu.Lock()
					lastOLAP = res
					mu.Unlock()
				}
				for i := 0; i < cfg.Mix.OLTPPerOLAP; i++ {
					if cfg.Duration > 0 && clk.Now().After(deadline) {
						break
					}
					t1 := clk.Now()
					if _, err := e.ExecuteTxn(context.Background(), sess, client.OLTP()); err != nil {
						atomic.AddInt64(&errs, 1)
					} else {
						local = append(local, sample{at: t1.Sub(start), lat: clk.Since(t1), olap: false})
					}
				}
				if cfg.OnRound != nil {
					cfg.OnRound(c, round)
				}
				round++
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		})
	}
	wg.Wait()
	wall := clk.Since(start)

	res := Result{Wall: wall, Errors: errs, LastOLAP: lastOLAP}
	for _, s := range samples {
		if s.olap {
			res.OLAPCount++
		} else {
			res.OLTPCount++
		}
	}
	oltpQ, olapQ, _ := e.Stats().Quantiles()
	res.OLTPLatAvg, res.OLTPLatP50, res.OLTPLatP95, res.OLTPLatP99 =
		oltpQ.Avg, oltpQ.P50, oltpQ.P95, oltpQ.P99
	res.OLAPLatAvg, res.OLAPLatP50, res.OLAPLatP95, res.OLAPLatP99 =
		olapQ.Avg, olapQ.P50, olapQ.P95, olapQ.P99

	if cfg.TimelineBucket > 0 {
		res.Timeline = buildTimeline(samples, wall, cfg.TimelineBucket)
	}
	return res
}

func buildTimeline(samples []sample, wall, bucket time.Duration) []Bucket {
	n := int(wall/bucket) + 1
	buckets := make([]Bucket, n)
	sums := make([]struct{ oltp, olap time.Duration }, n)
	for i := range buckets {
		buckets[i].Start = time.Duration(i) * bucket
	}
	for _, s := range samples {
		i := int(s.at / bucket)
		if i >= n {
			i = n - 1
		}
		if s.olap {
			buckets[i].OLAP++
			sums[i].olap += s.lat
		} else {
			buckets[i].OLTP++
			sums[i].oltp += s.lat
		}
	}
	for i := range buckets {
		if buckets[i].OLTP > 0 {
			buckets[i].OLTPLat = sums[i].oltp / time.Duration(buckets[i].OLTP)
		}
		if buckets[i].OLAP > 0 {
			buckets[i].OLAPLat = sums[i].olap / time.Duration(buckets[i].OLAP)
		}
	}
	return buckets
}

// CI95 reports the mean and half-width 95% confidence interval of values
// (normal approximation, as the paper's error bars).
func CI95(values []float64) (mean, half float64) {
	n := float64(len(values))
	if n == 0 {
		return 0, 0
	}
	for _, v := range values {
		mean += v
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, v := range values {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / (n - 1))
	return mean, 1.96 * sd / math.Sqrt(n)
}

// FormatDuration renders a duration rounded for tables.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
