package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/colstore"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// ScanBench measures the morsel-driven parallel scan executor on a mixed
// analytical scan workload — a full aggregation, a zone-map-prunable
// aggregation, a selective row stream and a LIMIT probe — over one
// multi-partition table, A/B-tests the encoded scan kernels at the store
// level, and writes a machine-readable report to BENCH_scan.json (override
// the path with PROTEUS_SCAN_BENCH_PATH). rows_per_sec counts logical
// coverage: each query's input is the whole table, so an executor that
// prunes partitions or terminates early covers the same logical rows in
// less time.
func ScanBench(w io.Writer, s Scale) error {
	header(w, "Scan executor: morsel scans and encoded kernels")
	rows := s.YCSBRows * 4
	rounds := s.Rounds * 4 * s.Repeats
	parts := 8

	morsel, err := runScanMix(s, rows, parts, rounds)
	if err != nil {
		return err
	}

	rep := scanReport{
		Rows: rows, Partitions: parts, Sites: s.Sites,
		Workload: "sum-full, sum-pruned(1/8), filter-stream(10%), limit-100",
		Morsel:   morsel,
	}
	enc, err := runEncodedBench(s)
	if err != nil {
		return err
	}
	rep.Encoded = enc

	path := os.Getenv("PROTEUS_SCAN_BENCH_PATH")
	if path == "" {
		path = "BENCH_scan.json"
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Fprintf(w, "table: %d rows, %d partitions, %d sites; %d queries\n",
		rows, parts, s.Sites, morsel.Queries)
	fmt.Fprintf(w, "morsel: %10.0f rows/s  p95 %6.2f ms  %8.0f allocs/op -> %s\n",
		morsel.RowsPerSec, morsel.P95Millis, morsel.AllocsPerOp, path)
	fmt.Fprintf(w, "encoded scans (dict/FoR code kernels vs decode-first):\n")
	for _, q := range enc.Queries {
		fmt.Fprintf(w, "  %-16s %10.0f -> %10.0f rows/s  (%.2fx)\n",
			q.Name, q.DecodedRowsPerSec, q.EncodedRowsPerSec, q.Speedup)
	}
	fmt.Fprintf(w, "  bytes/row %0.1f -> %0.1f (%.2fx smaller)\n",
		enc.DecodedBytesPerRow, enc.EncodedBytesPerRow, enc.BytesRatio)
	return nil
}

type scanResult struct {
	RowsPerSec    float64 `json:"rows_per_sec"`
	P95Millis     float64 `json:"p95_ms"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	ElapsedMillis float64 `json:"elapsed_ms"`
	Queries       int     `json:"queries"`
}

type scanReport struct {
	Rows       int64          `json:"rows"`
	Partitions int            `json:"partitions"`
	Sites      int            `json:"sites"`
	Workload   string         `json:"workload"`
	Morsel     scanResult     `json:"morsel"`
	Encoded    *encodedReport `json:"encoded_scan,omitempty"`
}

// encodedReport is the encoded-scan A/B section: the same compressed
// column store scanned with encodings off (the decode-first path: RLE
// expansion into pooled buffers, boxed per-run predicates) and on
// (dictionary/FoR code kernels, zero-copy encoded views).
type encodedReport struct {
	Rows               int64            `json:"rows"`
	Queries            []encodedQueryAB `json:"queries"`
	DecodedBytesPerRow float64          `json:"decoded_bytes_per_row"`
	EncodedBytesPerRow float64          `json:"encoded_bytes_per_row"`
	BytesRatio         float64          `json:"bytes_ratio"`
	EncodingCols       map[string]int64 `json:"encoding_cols"`
}

type encodedQueryAB struct {
	Name              string  `json:"name"`
	DecodedRowsPerSec float64 `json:"decoded_rows_per_sec"`
	EncodedRowsPerSec float64 `json:"encoded_rows_per_sec"`
	Speedup           float64 `json:"speedup"`
}

// runScanMix loads one engine and times the query mix. Background
// intervals are slowed so the allocation delta reflects the query path.
func runScanMix(s Scale, rows int64, parts, rounds int) (scanResult, error) {
	cfg := cluster.DefaultConfig()
	cfg.Mode = cluster.ModeColumnStore
	cfg.NumSites = s.Sites
	cfg.Net = simnet.Config{}
	cfg.ReplicationInterval = 50 * time.Millisecond
	cfg.MaintainInterval = 100 * time.Millisecond
	e := cluster.New(cfg)
	defer e.Close()

	tbl, err := e.CreateTable(cluster.TableSpec{
		Name: "scanbench",
		Cols: []schema.Column{
			{Name: "id", Kind: types.KindInt64},
			{Name: "grp", Kind: types.KindInt64},
			{Name: "val", Kind: types.KindFloat64},
		},
		MaxRows: schema.RowID(rows), Partitions: parts,
	})
	if err != nil {
		return scanResult{}, err
	}
	data := make([]schema.Row, 0, rows)
	for i := int64(0); i < rows; i++ {
		data = append(data, schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(i), types.NewInt64(i % 10), types.NewFloat64(float64(i)),
		}})
	}
	if err := e.LoadRows(context.Background(), tbl.ID, data); err != nil {
		return scanResult{}, err
	}

	mix := scanMix(tbl, rows)
	sess := e.NewSession()
	ctx := context.Background()
	for _, q := range mix { // warm plans and cost models
		if _, err := e.ExecuteQuery(ctx, sess, q); err != nil {
			return scanResult{}, err
		}
	}

	var lat []time.Duration
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, q := range mix {
			qs := time.Now()
			if _, err := e.ExecuteQuery(ctx, sess, q); err != nil {
				return scanResult{}, err
			}
			lat = append(lat, time.Since(qs))
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p95 := lat[len(lat)*95/100]
	queries := rounds * len(mix)
	return scanResult{
		RowsPerSec:    float64(rows) * float64(queries) / elapsed.Seconds(),
		P95Millis:     float64(p95) / float64(time.Millisecond),
		AllocsPerOp:   float64(m1.Mallocs-m0.Mallocs) / float64(queries),
		ElapsedMillis: float64(elapsed) / float64(time.Millisecond),
		Queries:       queries,
	}, nil
}

// runEncodedBench A/B-tests the encoded scan path at the store level: one
// compressed column store holding low-cardinality strings (dictionary),
// narrow integers (frame-of-reference) and random floats (plain), scanned
// with encodings toggled off (the decode-first path) and on (code-operating
// kernels). Values are shuffled so RLE runs are short — the regime where
// decode-first pays per-row boxing and the code kernels do not.
func runEncodedBench(s Scale) (*encodedReport, error) {
	rows := int(s.YCSBRows) * 4
	rounds := 3 * s.Repeats
	rng := rand.New(rand.NewSource(17))
	kinds := []types.Kind{types.KindInt64, types.KindString, types.KindFloat64}
	data := make([]schema.Row, rows)
	for i := range data {
		data[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(500_000 + int64(rng.Intn(256))),
			types.NewString(fmt.Sprintf("cat-%02d", rng.Intn(12))),
			types.NewFloat64(rng.Float64()),
		}}
	}

	type benchQuery struct {
		name string
		cols []schema.ColID
		pred storage.Pred
		agg  bool
	}
	queries := []benchQuery{
		{name: "string-eq", cols: []schema.ColID{1},
			pred: storage.Pred{{Col: 1, Op: storage.CmpEq, Val: types.NewString("cat-03")}}},
		{name: "low-card-filter", cols: []schema.ColID{0},
			pred: storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(500_050)}}},
		{name: "sum-filtered", cols: []schema.ColID{0},
			pred: storage.Pred{{Col: 1, Op: storage.CmpGe, Val: types.NewString("cat-06")}}, agg: true},
	}

	run := func(encodings bool) ([]float64, float64, error) {
		prev := colstore.SetEncodings(encodings)
		defer colstore.SetEncodings(prev)
		st := colstore.NewMem(kinds, storage.NoSort, true)
		if err := st.Load(data, 1); err != nil {
			return nil, 0, err
		}
		perQuery := make([]float64, len(queries))
		for qi, q := range queries {
			var agg *exec.Aggregator
			if q.agg {
				agg = exec.NewAggregator(nil, []exec.AggSpec{{Func: exec.AggSum, Col: 0}})
			}
			matched := 0
			st.ScanBatches(q.cols, q.pred, storage.Latest, storage.DefaultBatchRows, func(b *storage.Batch) bool {
				matched += b.Len()
				return true
			}) // warm
			start := time.Now()
			for r := 0; r < rounds; r++ {
				st.ScanBatches(q.cols, q.pred, storage.Latest, storage.DefaultBatchRows, func(b *storage.Batch) bool {
					if agg != nil {
						agg.ObserveBatch(b)
					} else {
						matched += b.Len()
					}
					return true
				})
			}
			elapsed := time.Since(start)
			perQuery[qi] = float64(rows) * float64(rounds) / elapsed.Seconds()
		}
		bytesPerRow := float64(st.Stats().Bytes) / float64(rows)
		return perQuery, bytesPerRow, nil
	}

	decoded, decodedBPR, err := run(false)
	if err != nil {
		return nil, err
	}
	encoded, encodedBPR, err := run(true)
	if err != nil {
		return nil, err
	}
	es := colstore.ReadEncodingStats()
	rep := &encodedReport{
		Rows:               int64(rows),
		DecodedBytesPerRow: decodedBPR,
		EncodedBytesPerRow: encodedBPR,
		EncodingCols: map[string]int64{
			"plain": es.PlainCols, "rle": es.RLECols,
			"dict": es.DictCols, "for": es.FoRCols,
		},
	}
	if encodedBPR > 0 {
		rep.BytesRatio = decodedBPR / encodedBPR
	}
	for qi, q := range queries {
		rep.Queries = append(rep.Queries, encodedQueryAB{
			Name:              q.name,
			DecodedRowsPerSec: decoded[qi],
			EncodedRowsPerSec: encoded[qi],
			Speedup:           encoded[qi] / decoded[qi],
		})
	}
	return rep, nil
}

// scanMix builds the four-query workload over the bench table.
func scanMix(tbl *schema.Table, rows int64) []*query.Query {
	sum := func(pred storage.Pred) *query.Query {
		return &query.Query{Root: &query.AggNode{
			Child: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{2}, Pred: pred},
			Aggs:  []exec.AggSpec{{Func: exec.AggSum, Col: 0}},
		}}
	}
	return []*query.Query{
		sum(nil),
		sum(storage.Pred{{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(rows * 7 / 8)}}),
		{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 2},
			Pred: storage.Pred{{Col: 1, Op: storage.CmpEq, Val: types.NewInt64(0)}}}},
		{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0}}, Limit: 100},
	}
}
