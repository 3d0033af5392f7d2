package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/simnet"
	"proteus/internal/types"
	"proteus/internal/workload/chbench"
)

// chQueryNames labels the workload's eight analytical queries in
// chbench.Query index order.
var chQueryNames = [chbench.NumQueries]string{
	"q1", "q6", "q14", "q4", "q12", "q3", "q7", "q19",
}

// chJoinMix indexes the join/group-by queries; the remaining queries are
// single-table scan-aggregates.
var chJoinMix = []int{2, 4, 5, 6, 7}

// CHBench runs the full CH-benCHmark analytical matrix at 10x (quick) or
// 25x (full) the default loaded-order row counts on the join/group-by
// engine with runtime filter pushdown: it times every query, times a mixed
// OLTP+OLAP phase, and reruns the queries with a build-side budget that
// forces every batch join through the disksim-backed grace join, requiring
// the spilled answers to match the in-memory ones. Writes
// BENCH_chbench.json (override with PROTEUS_CHBENCH_PATH).
func CHBench(w io.Writer, s Scale) error {
	header(w, "CH-benCHmark: join/group-by engine, in memory and spilled")
	mult := 10
	if s.Name == "full" {
		mult = 25
	}
	rounds := s.Rounds * s.Repeats
	if rounds < 2 {
		rounds = 2
	}

	mem, err := newCHRun(s, mult, nil)
	if err != nil {
		return err
	}
	defer mem.close()

	rep := chbenchReport{
		Scale:             s.Name,
		Warehouses:        mem.cfg.Warehouses,
		Districts:         mem.cfg.Warehouses * mem.cfg.DistrictsPerW,
		OrdersPerDistrict: mem.cfg.LoadedOrdersPerDistrict,
		Rounds:            rounds,
	}

	// Warm the engine (plan caches, cost models, layout decisions).
	if _, err := mem.runAll(); err != nil {
		return err
	}
	js0 := exec.ReadJoinStats()
	memRes, err := mem.runAll()
	if err != nil {
		return err
	}
	js1 := exec.ReadJoinStats()
	rep.RuntimeFilter.Tested = js1.BloomTested - js0.BloomTested
	rep.RuntimeFilter.Passed = js1.BloomPassed - js0.BloomPassed
	rep.RuntimeFilter.BoundsPreds = js1.BoundsPreds - js0.BoundsPreds
	if rep.RuntimeFilter.Tested > 0 {
		rep.RuntimeFilter.PassPct = 100 * float64(rep.RuntimeFilter.Passed) / float64(rep.RuntimeFilter.Tested)
	}

	// Timed rounds, per query.
	mean, err := mem.timeQueries(rounds)
	if err != nil {
		return err
	}

	// Mixed OLTP+OLAP phase: CH clients interleave TPC-C transactions with
	// the analytical sequence, as in the paper's mixed-workload runs.
	if err := mem.runMixed(&rep.Mixed); err != nil {
		return err
	}

	// Forced spill: a tiny build-side budget pushes every batch join
	// through disksim-backed grace partitioning; every answer must match
	// the in-memory one.
	spillRun, err := newCHRun(s, mult, func(cfg *cluster.Config) {
		cfg.JoinSpillBudget = 4 << 10
	})
	if err != nil {
		return err
	}
	defer spillRun.close()
	if _, err := spillRun.runAll(); err != nil { // warm
		return err
	}
	sj0 := exec.ReadJoinStats()
	spillStart := time.Now()
	spillRes, err := spillRun.runAll()
	if err != nil {
		return err
	}
	rep.Spill.Millis = float64(time.Since(spillStart)) / float64(time.Millisecond)
	sj1 := exec.ReadJoinStats()
	rep.Spill.Partitions = sj1.SpillPartitions - sj0.SpillPartitions
	rep.Spill.Bytes = sj1.SpillBytes - sj0.SpillBytes
	rep.Spill.Recursions = sj1.SpillRecursions - sj0.SpillRecursions

	inMix := map[int]bool{}
	for _, qi := range chJoinMix {
		inMix[qi] = true
	}
	rep.AnswersMatch = true
	for i := 0; i < chbench.NumQueries; i++ {
		q := chQuery{
			Name:    chQueryNames[i],
			JoinMix: inMix[i],
			Millis:  mean[i],
			OutRows: memRes[i].NumRows(),
			Match:   relsApprox(memRes[i], spillRes[i]),
		}
		rep.Queries = append(rep.Queries, q)
		rep.AnswersMatch = rep.AnswersMatch && q.Match
		if q.JoinMix {
			rep.JoinMixMillis += q.Millis
		}
	}

	path := os.Getenv("PROTEUS_CHBENCH_PATH")
	if path == "" {
		path = "BENCH_chbench.json"
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Fprintf(w, "scale %s: %d warehouses, %d districts, %d orders/district, %d timed rounds\n",
		rep.Scale, rep.Warehouses, rep.Districts, rep.OrdersPerDistrict, rounds)
	for _, q := range rep.Queries {
		tag := " "
		if q.JoinMix {
			tag = "*"
		}
		fmt.Fprintf(w, "  %s%-4s %8.2f ms  %6d rows  spilled answer matches=%v\n",
			tag, q.Name, q.Millis, q.OutRows, q.Match)
	}
	fmt.Fprintf(w, "join/group-by mix (*): %.2f ms\n", rep.JoinMixMillis)
	fmt.Fprintf(w, "runtime filter: %d probed, %d passed (%.1f%%), %d bounds preds pushed\n",
		rep.RuntimeFilter.Tested, rep.RuntimeFilter.Passed, rep.RuntimeFilter.PassPct,
		rep.RuntimeFilter.BoundsPreds)
	fmt.Fprintf(w, "mixed phase: %d txns + %d queries in %.0f ms\n",
		rep.Mixed.Txns, rep.Mixed.Queries, rep.Mixed.Millis)
	fmt.Fprintf(w, "forced spill: %d partitions, %d bytes, %d recursions in %.0f ms -> %s\n",
		rep.Spill.Partitions, rep.Spill.Bytes, rep.Spill.Recursions, rep.Spill.Millis, path)
	if !rep.AnswersMatch {
		return fmt.Errorf("chbench: spilled answers diverge from in-memory ones")
	}
	return nil
}

type chQuery struct {
	Name    string  `json:"name"`
	JoinMix bool    `json:"join_mix"`
	Millis  float64 `json:"batch_ms"`
	OutRows int     `json:"out_rows"`
	Match   bool    `json:"answers_match"`
}

type chbenchReport struct {
	Scale             string    `json:"scale"`
	Warehouses        int       `json:"warehouses"`
	Districts         int       `json:"districts"`
	OrdersPerDistrict int       `json:"orders_per_district"`
	Rounds            int       `json:"rounds"`
	Queries           []chQuery `json:"queries"`
	JoinMixMillis     float64   `json:"join_mix_batch_ms"`
	AnswersMatch      bool      `json:"answers_match"`
	RuntimeFilter     struct {
		Tested      int64   `json:"probed"`
		Passed      int64   `json:"passed"`
		PassPct     float64 `json:"pass_pct"`
		BoundsPreds int64   `json:"bounds_preds"`
	} `json:"runtime_filter"`
	Mixed chMixedResult `json:"mixed_phase"`
	Spill struct {
		Partitions int64   `json:"partitions"`
		Bytes      int64   `json:"bytes"`
		Recursions int64   `json:"recursions"`
		Millis     float64 `json:"elapsed_ms"`
	} `json:"forced_spill"`
}

type chMixedResult struct {
	Txns    int     `json:"txns"`
	Queries int     `json:"queries"`
	Millis  float64 `json:"elapsed_ms"`
}

// chRun is one loaded CH engine plus its fixed query set.
type chRun struct {
	e       *cluster.Engine
	w       *chbench.Workload
	cfg     chbench.Config
	sess    *cluster.Session
	queries []*query.Query
}

// newCHRun builds a column-store engine (fixed layouts keep the comparison
// about the join engine, not ASA decisions), loads CH at mult times the
// scale's order count, and materializes the eight queries with a fixed
// seed so every run — in memory and spilled — parameterizes q19
// identically.
func newCHRun(s Scale, mult int, tweak func(*cluster.Config)) (*chRun, error) {
	cfg := cluster.DefaultConfig()
	cfg.Mode = cluster.ModeColumnStore
	cfg.NumSites = s.Sites
	cfg.Net = simnet.Config{}
	cfg.ReplicationInterval = 50 * time.Millisecond
	cfg.MaintainInterval = 100 * time.Millisecond
	if tweak != nil {
		tweak(&cfg)
	}
	e := cluster.New(cfg)
	ch := chConfig(s)
	ch.LoadedOrdersPerDistrict = s.CHOrders * mult
	if ch.MaxOrdersPerDistrict < ch.LoadedOrdersPerDistrict*2 {
		ch.MaxOrdersPerDistrict = ch.LoadedOrdersPerDistrict * 2
	}
	w, err := chbench.Setup(e, ch)
	if err != nil {
		e.Close()
		return nil, err
	}
	r := &chRun{e: e, w: w, cfg: ch, sess: e.NewSession()}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < chbench.NumQueries; i++ {
		r.queries = append(r.queries, w.Query(i, rng))
	}
	return r, nil
}

func (r *chRun) close() { r.e.Close() }

// runAll executes the full query set once, returning per-query results.
func (r *chRun) runAll() ([]exec.Rel, error) {
	ctx := context.Background()
	res := make([]exec.Rel, len(r.queries))
	for i, q := range r.queries {
		rel, err := r.e.ExecuteQuery(ctx, r.sess, q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", chQueryNames[i], err)
		}
		res[i] = rel
	}
	return res, nil
}

// timeQueries runs the set for rounds rounds and returns each query's mean
// latency in milliseconds.
func (r *chRun) timeQueries(rounds int) ([]float64, error) {
	ctx := context.Background()
	total := make([]time.Duration, len(r.queries))
	for round := 0; round < rounds; round++ {
		for i, q := range r.queries {
			start := time.Now()
			if _, err := r.e.ExecuteQuery(ctx, r.sess, q); err != nil {
				return nil, fmt.Errorf("%s: %w", chQueryNames[i], err)
			}
			total[i] += time.Since(start)
		}
	}
	mean := make([]float64, len(r.queries))
	for i, d := range total {
		mean[i] = float64(d) / float64(rounds) / float64(time.Millisecond)
	}
	return mean, nil
}

// runMixed interleaves TPC-C transactions with the analytical sequence —
// the CH-benCHmark's defining mix — on this engine. Aborted transactions
// (write conflicts) are part of the workload, not errors.
func (r *chRun) runMixed(out *chMixedResult) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	client := r.w.NewClient(0, rng)
	start := time.Now()
	for i := 0; i < 40; i++ {
		for j := 0; j < 5; j++ {
			if _, err := r.e.ExecuteTxn(ctx, r.sess, client.OLTP()); err == nil {
				out.Txns++
			}
		}
		if _, err := r.e.ExecuteQuery(ctx, r.sess, client.OLAP()); err != nil {
			return err
		}
		out.Queries++
	}
	out.Millis = float64(time.Since(start)) / float64(time.Millisecond)
	return nil
}

// relsApprox compares two relations ignoring row order, with a relative
// float tolerance (a spilled join sums its partials in another order).
func relsApprox(a, b exec.Rel) bool {
	if len(a.Cols) != len(b.Cols) || a.NumRows() != b.NumRows() {
		return false
	}
	at, bt := sortedTuples(a), sortedTuples(b)
	for i := range at {
		for c := range at[i] {
			if !valsApprox(at[i][c], bt[i][c]) {
				return false
			}
		}
	}
	return true
}

func sortedTuples(r exec.Rel) [][]types.Value {
	ts := append([][]types.Value{}, r.Tuples...)
	sort.Slice(ts, func(i, j int) bool {
		for c := range ts[i] {
			if cmp := types.Compare(ts[i][c], ts[j][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return ts
}

func valsApprox(a, b types.Value) bool {
	if a.K == types.KindFloat64 || b.K == types.KindFloat64 {
		af, bf := a.Float(), b.Float()
		if af == bf {
			return true
		}
		return math.Abs(af-bf) <= 1e-6*math.Max(math.Abs(af), math.Abs(bf))
	}
	return types.Equal(a, b)
}
