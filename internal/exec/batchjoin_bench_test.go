package exec

// A/B benchmarks for the batch join and group-by engine against the row
// operators they replace. `make bench` runs these with -benchmem; the two
// columns that matter are ns/op (typed keys + index-pair probe vs boxed
// tuples) and allocs/op (one gather per column vs one concat per row).

import (
	"math/rand"
	"testing"

	"proteus/internal/disksim"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// benchJoinInputs builds a dup-heavy pair of relations: nl left rows, nr
// right rows, int keys over a domain that yields roughly 4*nl matches.
func benchJoinInputs(nl, nr int) (Rel, Rel) {
	rng := rand.New(rand.NewSource(5))
	domain := nr / 4
	if domain < 1 {
		domain = 1
	}
	l := Rel{Cols: []string{"k", "la", "lb"}}
	for i := 0; i < nl; i++ {
		l.Tuples = append(l.Tuples, []types.Value{
			types.NewInt64(int64(rng.Intn(domain))),
			types.NewInt64(int64(i)),
			types.NewFloat64(float64(i) / 3),
		})
	}
	r := Rel{Cols: []string{"k", "ra"}}
	for i := 0; i < nr; i++ {
		r.Tuples = append(r.Tuples, []types.Value{
			types.NewInt64(int64(rng.Intn(domain))),
			types.NewInt64(int64(100000 + i)),
		})
	}
	return l, r
}

func BenchmarkJoinRow(b *testing.B) {
	l, r := benchJoinInputs(20000, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := HashJoin(l, r, []int{0}, []int{0})
		_ = out
	}
}

func BenchmarkJoinBatch(b *testing.B) {
	l, r := benchJoinInputs(20000, 5000)
	lc, rc := ColRelFromRel(l), ColRelFromRel(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := BatchHashJoin(&lc, &rc, 0, 0, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// BenchmarkJoinBatchProjected adds late materialization: the caller needs
// one payload column of five, so four gathers never happen.
func BenchmarkJoinBatchProjected(b *testing.B) {
	l, r := benchJoinInputs(20000, 5000)
	lc, rc := ColRelFromRel(l), ColRelFromRel(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := BatchHashJoin(&lc, &rc, 0, 0, nil, []int{2}, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// BenchmarkJoinBatchRuntimeFilter measures building a runtime filter from
// the build side and Bloom-probing the full probe side through FilterCols
// (the pushdown the cluster executor performs before the join proper).
func BenchmarkJoinBatchRuntimeFilter(b *testing.B) {
	l, r := benchJoinInputs(20000, 5000)
	lc, rc := ColRelFromRel(l), ColRelFromRel(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf := BuildRuntimeFilter(&rc, 0)
		filtered := rf.FilterCols(&lc, 0)
		out, _, err := BatchHashJoin(&filtered, &rc, 0, 0, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// BenchmarkJoinBatchSpill forces grace partitioning through a zero-latency
// disksim device: the cost of serialize/round-trip/deserialize plus the
// restoring pair sort, against the same in-memory join above.
func BenchmarkJoinBatchSpill(b *testing.B) {
	l, r := benchJoinInputs(20000, 5000)
	lc, rc := ColRelFromRel(l), ColRelFromRel(r)
	spill := &JoinSpill{Device: disksim.New(disksim.Config{}), Budget: 1 << 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := BatchHashJoin(&lc, &rc, 0, 0, spill, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// benchGroupInputs builds a 3-column relation: int group key (8 groups),
// int payload, float payload.
func benchGroupInputs(n int) Rel {
	rng := rand.New(rand.NewSource(9))
	r := Rel{Cols: []string{"g", "x", "y"}}
	for i := 0; i < n; i++ {
		r.Tuples = append(r.Tuples, []types.Value{
			types.NewInt64(int64(rng.Intn(8))),
			types.NewInt64(int64(rng.Intn(1000))),
			types.NewFloat64(float64(rng.Intn(1000)) / 4),
		})
	}
	return r
}

var benchAggSpecs = []AggSpec{
	{Func: AggCount}, {Func: AggSum, Col: 1}, {Func: AggSum, Col: 2}, {Func: AggMin, Col: 2},
}

// BenchmarkGroupByRow and BenchmarkGroupByBatch feed the same input to the
// group-by table tuple by tuple (Observe, as the coordinator folds a boxed
// input) and as columns (ObserveCols).
func BenchmarkGroupByRow(b *testing.B) {
	r := benchGroupInputs(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := NewAggregator([]int{0}, benchAggSpecs)
		for _, t := range r.Tuples {
			agg.Observe(t)
		}
		out := agg.Rel(r.Cols)
		_ = out
	}
}

func BenchmarkGroupByBatch(b *testing.B) {
	r := benchGroupInputs(50000)
	c := ColRelFromRel(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := NewAggregator([]int{0}, benchAggSpecs)
		agg.ObserveCols(&c)
		out := agg.Rel(c.Cols)
		_ = out
	}
}

// BenchmarkGroupByBatchDict groups on a dictionary-encoded string key,
// which canonKeys boxes: every row hashes and compares its string.
func BenchmarkGroupByBatchDict(b *testing.B) {
	const n = 50000
	rng := rand.New(rand.NewSource(13))
	dict := []string{"ca", "il", "ny", "or", "tx", "ut", "va", "wa"}
	codes := make([]uint32, n)
	x := make([]int64, n)
	for i := range codes {
		codes[i] = uint32(rng.Intn(len(dict)))
		x[i] = int64(rng.Intn(1000))
	}
	batch := &Batch{Vecs: []Vec{
		storage.DictVec(codes, dict),
		storage.ViewVec(types.KindInt64, x, nil, nil, nil),
	}}
	batch.SetRowIDsView(make([]schema.RowID, n))
	specs := []AggSpec{{Func: AggCount}, {Func: AggSum, Col: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := NewAggregator([]int{0}, specs)
		agg.ObserveBatch(batch)
		out := agg.Rel([]string{"g", "x"})
		_ = out
	}
}

// BenchmarkGroupByWindow is a scan worker's grouped fold per batch (one
// op = one 256-row batch): a 16-value FoR-coded key and a float SUM, as
// in the benchmark's olap-scan groupby shape, into one long-lived
// aggregator. Each batch's key spans fewer values than it has rows, so
// groupIDs maps its rows through the window and reaches the hash table
// once per key. Steady state allocates nothing.
func BenchmarkGroupByWindow(b *testing.B) {
	const n = storage.DefaultBatchRows
	rng := rand.New(rand.NewSource(21))
	codes, amounts := make([]uint32, n), make([]float64, n)
	for i := range codes {
		codes[i], amounts[i] = uint32(rng.Intn(16)), float64(rng.Intn(10000))/100
	}
	batch := vecBatch(n, nil, storage.FoRVec(types.KindInt64, 1, codes),
		storage.ViewVec(types.KindFloat64, nil, amounts, nil, nil))
	agg := NewAggregator([]int{0}, []AggSpec{{Func: AggSum, Col: 1}})
	agg.ObserveBatch(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.ObserveBatch(batch)
	}
}

// BenchmarkJoinTableProbe measures the pipelined probe per scan batch (one
// op = one 256-row batch through the stages and into an aggregator) on the
// two shapes that dominate the CH join mix. q7: two stages keyed on one
// scan column — 2 000 unique item ids, then 8 000 stock rows at four per
// key — summing a scan column, so the output is a view and nothing is
// gathered. q12: one stage over 67 200 strided order ids carrying a payload
// column the aggregate groups by, so the output is a dense gather. Both lay
// their tables out dense (direct slots). sparse: one stage over 8 000 keys
// 256 apart, half the probes absent, so the hashed layout and its Bloom
// test stay measured. Steady state allocates nothing: every buffer is the
// prober's or the aggregator's.
func BenchmarkJoinTableProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	table := func(n int, key func(i int) int64, payload func(i int) int64) *JoinTable {
		c := NewColRel([]string{"k", "p"})
		for i := 0; i < n; i++ {
			c.Vecs[0].Append(types.NewInt64(key(i)))
			c.Vecs[1].Append(types.NewInt64(payload(i)))
		}
		c.SetRows(n)
		return BuildJoinTable(&c, 0)
	}
	batches := func(key func() int64) []*storage.Batch {
		out := make([]*storage.Batch, 64)
		for i := range out {
			bt := &storage.Batch{Vecs: make([]storage.Vec, 2)}
			ids := make([]schema.RowID, storage.DefaultBatchRows)
			for range ids {
				bt.Vecs[0].Append(types.NewInt64(key()))
				bt.Vecs[1].Append(types.NewFloat64(float64(rng.Intn(4000)) / 4))
			}
			bt.SetRowIDsView(ids)
			out[i] = bt
		}
		return out
	}
	scanKey := ColRef{Stage: -1, Col: 0}
	for _, tc := range []struct {
		name    string
		pipe    *JoinPipe
		in      []*storage.Batch
		groupBy []int
		specs   []AggSpec
	}{
		{
			name: "q7",
			pipe: NewJoinPipe([]ProbeStage{
				{Table: table(2000, func(i int) int64 { return int64(i) }, func(i int) int64 { return int64(i) }), Key: scanKey},
				{Table: table(8000, func(i int) int64 { return int64(i / 4) }, func(i int) int64 { return int64(i) }), Key: scanKey},
			}, []ColRef{{Stage: -1, Col: 1}}),
			in:    batches(func() int64 { return int64(rng.Intn(2000)) }),
			specs: []AggSpec{{Func: AggSum, Col: 0}, {Func: AggCount}},
		},
		{
			name: "q12",
			pipe: NewJoinPipe([]ProbeStage{
				{Table: table(67200, func(i int) int64 { return int64(i/1680)*3520 + int64(i%1680) }, func(i int) int64 { return int64(i % 10) }), Key: scanKey},
			}, []ColRef{{Stage: -1, Col: 1}, {Stage: 0, Col: 1}}),
			in:      batches(func() int64 { return int64(rng.Intn(40))*3520 + int64(rng.Intn(2520)) }),
			groupBy: []int{1},
			specs:   []AggSpec{{Func: AggCount}, {Func: AggSum, Col: 0}},
		},
		{
			name: "sparse",
			pipe: NewJoinPipe([]ProbeStage{
				{Table: table(8000, func(i int) int64 { return int64(i) * 256 }, func(i int) int64 { return int64(i) }), Key: scanKey},
			}, []ColRef{{Stage: -1, Col: 1}}),
			in:    batches(func() int64 { return int64(rng.Intn(16000)) * 128 }),
			specs: []AggSpec{{Func: AggSum, Col: 0}, {Func: AggCount}},
		},
	} {
		b.Run(tc.name, func(b *testing.B) {
			pr := tc.pipe.NewProber(storage.DefaultBatchRows)
			agg := NewAggregator(tc.groupBy, tc.specs)
			for _, bt := range tc.in { // warm the scratch buffers and the groups
				if jb := pr.Apply(bt); jb != nil {
					agg.ObserveBatch(jb)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if jb := pr.Apply(tc.in[i%len(tc.in)]); jb != nil {
					agg.ObserveBatch(jb)
				}
			}
			b.StopTimer()
			st := pr.Close()
			b.ReportMetric(float64(st[0].ProbeRows)/float64(b.N+len(tc.in)), "probes/op")
		})
	}
}
