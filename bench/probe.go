package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"proteus/internal/colstore"
	"proteus/internal/disksim"
	"proteus/internal/exec"
	"proteus/internal/partition"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// The P probes: the benchmark calls one layer's public function directly,
// single-threaded, and reports the median per-call time. Probes in this
// file run on fixtures built from the seed, the same for every workload, so
// a layer's number is comparable across workloads and commits; the probes
// in probe_workload.go run on the measured engine and its op list.

// probeCalls is the least number of calls a probe makes unless one call
// takes milliseconds; probeBudget then bounds the probe instead.
const (
	probeCalls  = 1000
	probeBudget = 300 * time.Millisecond
)

// probeMedian times fn in batches of `per` calls — per > 1 for calls too
// short to time one by one — until probeCalls calls have run or probeBudget
// has passed (five batches at least), and returns the median per-call time
// in nanoseconds.
func probeMedian(per int, fn func()) float64 {
	var batches []time.Duration
	start := time.Now()
	for calls := 0; len(batches) < 5 || (calls < probeCalls && time.Since(start) < probeBudget); calls += per {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		batches = append(batches, time.Since(t0))
	}
	return float64(medianDur(batches)) / float64(per)
}

// probeRun runs named probe steps, each inside a span, and stops at the
// first that fails.
type probeRun struct {
	res    *result
	tr     *tracer
	parent int
	err    error
}

func (p *probeRun) step(name string, fn func() error) {
	if p.err != nil {
		return
	}
	p.tr.around(name, p.parent, func() { p.err = fn() })
	if p.err != nil {
		p.err = fmt.Errorf("probe %s: %w", name, p.err)
	}
}

// perSecond converts a per-call time over n rows into rows per second.
func perSecond(rows int, nsPerCall float64) float64 {
	if nsPerCall <= 0 {
		return 0
	}
	return float64(rows) / (nsPerCall / 1e9)
}

const fixtureRows = 50000

// Columns of the encoded fixture partition.
const (
	fixPlain schema.ColID = iota // float, incompressible
	fixDict                      // string, 6 values
	fixFoR                       // int, random in a small range
	fixRLE                       // int, long sorted runs
)

var fixKinds = []types.Kind{types.KindFloat64, types.KindString, types.KindInt64, types.KindInt64}

func fixtureBounds(cols int) partition.Bounds {
	// Twice the loaded rows: the insert probe needs fresh row ids.
	return partition.Bounds{RowStart: 0, RowEnd: 2 * fixtureRows, ColStart: 0, ColEnd: schema.ColID(cols)}
}

func zeroLatencyFactory() partition.Factory {
	return partition.Factory{Dev: disksim.New(disksim.Config{})}
}

// encodedFixture is a compressed column partition with one column per
// encoding the column store chooses between.
func encodedFixture(rng *rand.Rand, tier storage.Tier) (*partition.Partition, error) {
	l := storage.Layout{Format: storage.ColumnFormat, Tier: tier, SortBy: storage.NoSort, Compressed: true}
	p := partition.New(1, fixtureBounds(len(fixKinds)), fixKinds, l, zeroLatencyFactory())
	rows := make([]schema.Row, fixtureRows)
	for i := range rows {
		rows[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewFloat64(rng.Float64() * 1000),
			types.NewString(scanStatuses[rng.Intn(len(scanStatuses))]),
			types.NewInt64(int64(rng.Intn(200))),
			types.NewInt64(int64(i / 500)),
		}}
	}
	return p, p.Load(rows, 1)
}

// rowFixture is a row-layout partition shaped like oltp-rmw's table.
func rowFixture(rng *rand.Rand, l storage.Layout) (*partition.Partition, error) {
	kinds := []types.Kind{types.KindInt64}
	for f := 0; f < oltpFields; f++ {
		kinds = append(kinds, types.KindString)
	}
	p := partition.New(2, fixtureBounds(len(kinds)), kinds, l, zeroLatencyFactory())
	rows := make([]schema.Row, fixtureRows)
	for i := range rows {
		rows[i] = schema.Row{ID: schema.RowID(i), Vals: fixtureRow(rng, int64(i))}
	}
	return p, p.Load(rows, 1)
}

func fixtureRow(rng *rand.Rand, key int64) []types.Value {
	vals := []types.Value{types.NewInt64(key)}
	for f := 0; f < oltpFields; f++ {
		vals = append(vals, types.NewString(randString(rng, oltpFieldBytes)))
	}
	return vals
}

// scanRate times a whole-partition single-column batch scan under a
// one-conjunct predicate on that column: without one, a scan of resident
// columns only hands out views and does no per-row work.
func scanRate(p *partition.Partition, col schema.ColID, op storage.CmpOp, val types.Value) float64 {
	cols, pred := []schema.ColID{col}, storage.Pred{{Col: col, Op: op, Val: val}}
	ns := probeMedian(1, func() {
		p.ScanBatches(cols, pred, storage.Latest, storage.DefaultBatchRows, func(*storage.Batch) bool { return true })
	})
	return perSecond(fixtureRows, ns)
}

// fixtureProbes runs every probe that needs no engine.
func fixtureProbes(p *probeRun, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	res, step := p.res, p.step

	step("colstore", func() error {
		e0 := colstore.ReadEncodingStats()
		mem, err := encodedFixture(rng, storage.MemoryTier)
		if err != nil {
			return err
		}
		if e1 := colstore.ReadEncodingStats(); e1.PlainCols == e0.PlainCols || e1.DictCols == e0.DictCols ||
			e1.FoRCols == e0.FoRCols || e1.RLECols == e0.RLECols {
			return fmt.Errorf("fixture did not produce every encoding: %+v -> %+v", e0, e1)
		}
		// Each predicate keeps about a tenth of the rows (a sixth for dict).
		res.set("colstore.scan_rows_per_s.plain", scanRate(mem, fixPlain, storage.CmpLt, types.NewFloat64(100)))
		res.set("colstore.scan_rows_per_s.dict", scanRate(mem, fixDict, storage.CmpEq, types.NewString("shipped")))
		res.set("colstore.scan_rows_per_s.for", scanRate(mem, fixFoR, storage.CmpLt, types.NewInt64(20)))
		res.set("colstore.scan_rows_per_s.rle", scanRate(mem, fixRLE, storage.CmpLt, types.NewInt64(10)))
		zm, pred := mem.ZoneMap(), storage.Pred{
			{Col: fixFoR, Op: storage.CmpGe, Val: types.NewInt64(50)},
			{Col: fixFoR, Op: storage.CmpLt, Val: types.NewInt64(60)},
		}
		res.set("zonemap.skip_ns", probeMedian(100, func() { zm.CanSkip(pred) }))
		disk, err := encodedFixture(rng, storage.DiskTier)
		if err != nil {
			return err
		}
		res.set("colstore.disk_scan_rows_per_s", scanRate(disk, fixPlain, storage.CmpLt, types.NewFloat64(100)))
		return nil
	})

	step("storage.filter", func() error {
		const n = 4096
		i64 := make([]int64, n)
		codes := make([]uint32, n)
		dcodes := make([]uint32, n)
		for i := range i64 {
			i64[i] = int64(rng.Intn(1000))
			codes[i] = uint32(rng.Intn(1000))
			dcodes[i] = uint32(rng.Intn(len(scanStatuses)))
		}
		dict := append([]string(nil), scanStatuses...)
		sort.Strings(dict)
		plain := storage.ViewVec(types.KindInt64, i64, nil, nil, nil)
		forv := storage.FoRVec(types.KindInt64, 100, codes)
		dictv := storage.DictVec(dcodes, dict)
		dst := make([]int32, 0, n)
		perRow := func(v *storage.Vec, op storage.CmpOp, val types.Value) float64 {
			return probeMedian(1, func() { dst = storage.FilterVec(dst[:0], nil, n, v, op, val) }) / n
		}
		res.set("storage.filter_ns_per_row.int", perRow(&plain, storage.CmpLt, types.NewInt64(100)))
		res.set("storage.filter_ns_per_row.for", perRow(&forv, storage.CmpLt, types.NewInt64(200)))
		res.set("storage.filter_ns_per_row.dict", perRow(&dictv, storage.CmpEq, types.NewString("shipped")))
		return nil
	})

	step("rowstore", func() error {
		p, err := rowFixture(rng, storage.DefaultRowLayout())
		if err != nil {
			return err
		}
		col := []schema.ColID{3}
		res.set("rowstore.get_ns", probeMedian(100, func() {
			p.Get(schema.RowID(rng.Intn(fixtureRows)), col, storage.Latest)
		}))
		ver := uint64(1)
		val := []types.Value{types.NewString(randString(rng, oltpFieldBytes))}
		var uerr error
		res.set("rowstore.update_ns", probeMedian(100, func() {
			ver++
			if err := p.Update(schema.RowID(rng.Intn(fixtureRows)), col, val, ver); err != nil {
				uerr = err
			}
		}))
		next := int64(fixtureRows)
		res.set("rowstore.insert_ns", probeMedian(100, func() {
			ver++
			if next < 2*fixtureRows {
				if err := p.Insert(schema.Row{ID: schema.RowID(next), Vals: fixtureRow(rng, next)}, ver); err != nil {
					uerr = err
				}
				next++
			}
		}))
		if uerr != nil {
			return uerr
		}
		// A fresh partition: the one above now carries version chains.
		q, err := rowFixture(rng, storage.DefaultRowLayout())
		if err != nil {
			return err
		}
		res.set("rowstore.scan_rows_per_s", scanRate(q, 0, storage.CmpLt, types.NewInt64(fixtureRows/10)))
		return nil
	})

	step("partition", func() error {
		p, err := rowFixture(rng, storage.DefaultColumnLayout())
		if err != nil {
			return err
		}
		// Maintain folds a delta of 256 updated rows into the column store.
		col := []schema.ColID{3}
		val := []types.Value{types.NewString(randString(rng, oltpFieldBytes))}
		ver := uint64(1)
		var folds []time.Duration
		for rep := 0; rep < 7; rep++ {
			for i := 0; i < 256; i++ {
				ver++
				if err := p.Update(schema.RowID(rep*256+i), col, val, ver); err != nil {
					return err
				}
			}
			merged, d, err := p.Maintain(storage.Latest, 256)
			if err != nil || merged == 0 {
				return fmt.Errorf("maintain folded %d rows: %v", merged, err)
			}
			folds = append(folds, d)
		}
		res.set("partition.maintain_ms", ms(medianDur(folds)))
		// Layout change on 50 000 rows, there and back.
		f := zeroLatencyFactory()
		var toRow, toCol []time.Duration
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			if err := p.ChangeLayout(storage.DefaultRowLayout(), f, storage.Latest); err != nil {
				return err
			}
			t1 := time.Now()
			if err := p.ChangeLayout(storage.DefaultColumnLayout(), f, storage.Latest); err != nil {
				return err
			}
			toRow, toCol = append(toRow, t1.Sub(t0)), append(toCol, time.Since(t1))
		}
		res.set("partition.change_layout_ms.col2row", ms(medianDur(toRow)))
		res.set("partition.change_layout_ms.row2col", ms(medianDur(toCol)))
		return nil
	})

	step("exec", func() error {
		// One scan batch of [grp, amount], aggregated over and over.
		b := storage.GetBatch(2)
		defer storage.PutBatch(b)
		for i := 0; i < storage.DefaultBatchRows; i++ {
			b.AppendRow(schema.RowID(i), []types.Value{types.NewInt64(int64(rng.Intn(scanGroups))), types.NewFloat64(float64(rng.Intn(4000)) / 4)})
		}
		sum := exec.NewAggregator(nil, []exec.AggSpec{{Func: exec.AggSum, Col: 1}})
		res.set("exec.agg_ns_per_row", probeMedian(10, func() { sum.ObserveBatch(b) })/storage.DefaultBatchRows)

		const probeRows, buildRows = 100000, 2000
		probe := exec.NewColRel([]string{"k", "g", "v"})
		for i := 0; i < probeRows; i++ {
			probe.Vecs[0].Append(types.NewInt64(int64(rng.Intn(2 * buildRows)))) // half the keys match
			probe.Vecs[1].Append(types.NewInt64(int64(rng.Intn(scanGroups))))
			probe.Vecs[2].Append(types.NewFloat64(float64(rng.Intn(4000)) / 4))
		}
		probe.SetRows(probeRows)
		build := exec.NewColRel([]string{"k", "p"})
		for i := 0; i < buildRows; i++ {
			build.Vecs[0].Append(types.NewInt64(int64(i)))
			build.Vecs[1].Append(types.NewFloat64(float64(i)))
		}
		build.SetRows(buildRows)
		grp := exec.NewAggregator([]int{1}, []exec.AggSpec{{Func: exec.AggSum, Col: 2}})
		res.set("exec.groupby_ns_per_row", probeMedian(1, func() { grp.ObserveCols(&probe) })/probeRows)

		// BatchHashJoin reports one total; its build/probe split is in the
		// package counters, read around the calls made here.
		j0 := exec.ReadJoinStats()
		var jerr error
		probeMedian(1, func() {
			if _, _, err := exec.BatchHashJoin(&probe, &build, 0, 0, nil, []int{2}, []int{1}); err != nil {
				jerr = err
			}
		})
		j1 := exec.ReadJoinStats()
		if jerr != nil {
			return jerr
		}
		if d := j1.BuildRows - j0.BuildRows; d > 0 {
			res.set("exec.join_build_ns_per_row", float64(j1.BuildNanos-j0.BuildNanos)/float64(d))
		}
		if d := j1.ProbeRows - j0.ProbeRows; d > 0 {
			res.set("exec.join_probe_ns_per_row", float64(j1.ProbeNanos-j0.ProbeNanos)/float64(d))
		}
		return nil
	})
	return p.err
}
