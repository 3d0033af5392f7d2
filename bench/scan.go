package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// olap-scan: six read-only scan shapes over one encoded column-store table.
const (
	scanRows       = 400000
	scanPartitions = 8
	scanPerPart    = scanRows / scanPartitions
	scanGroups     = 16
	// scanTsSpan keeps each partition's ts range inside 32 bits of
	// microseconds, so the column is stored frame-of-reference.
	scanTsSpan = int64(4_000_000_000)
	// scanDiskParts is how many trailing partitions move to the disk tier.
	scanDiskParts = 2
)

// Table-global column ids of the scan table.
const (
	scanColID schema.ColID = iota
	scanColGrp
	scanColTs
	scanColAmount
	scanColStatus
	scanColNote
)

var scanStatuses = []string{"new", "paid", "packed", "shipped", "returned", "closed"}

var scanTsBase = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixMicro()

// scanShapes names the rotation; the comments give each shape's
// selectivity and what it exercises.
var scanShapes = []string{
	"sum",        // 100 %: plain float SUM, no predicate
	"range-for",  // 10 % of rows on ts, uncorrelated with id: FoR-code filter on every morsel
	"dict-eq",    // 1/6 of rows: dictionary-code equality + COUNT
	"zone-prune", // half of one partition by id: zone maps prune 7 of 8 partitions
	"groupby",    // 100 %: 16-group GROUP BY on FoR codes
	"cold",       // the two disk-tier partitions only: deserialising scan
}

// scanSQL is the SQL form of the six shapes (the parser takes no time
// literals, so the range shape filters on grp).
var scanSQL = []string{
	"SELECT SUM(amount) FROM events",
	"SELECT SUM(amount) FROM events WHERE grp >= 3 AND grp < 5",
	"SELECT COUNT(*) FROM events WHERE status = 'shipped'",
	"SELECT SUM(amount), COUNT(*) FROM events WHERE id >= 1000 AND id < 26000",
	"SELECT grp, SUM(amount) FROM events GROUP BY grp",
	"SELECT MAX(amount) FROM events WHERE id >= 300000 AND id < 400000",
}

// scanConsts are the shapes' predicate constants: one set per run, drawn
// from the seed. The plan cache keys on a query's shape, not its constants
// (README.md, "Findings"), so a shape must not change constants within a
// run, and shapes must differ in more than constants (bench_test.go).
type scanConsts struct {
	tsLo, tsHi     int64 // 10 % of the ts span
	status         string
	zoneLo, zoneHi int64 // half of one partition, by id
	coldLo         int64 // first id of the disk-tier partitions
}

func drawScanConsts(rng *rand.Rand) scanConsts {
	c := scanConsts{coldLo: int64(scanPartitions-scanDiskParts) * scanPerPart}
	c.tsLo = scanTsBase + rng.Int63n(scanTsSpan*9/10)
	c.tsHi = c.tsLo + scanTsSpan/10
	c.status = scanStatuses[rng.Intn(len(scanStatuses))]
	// The pruned-to partition is always one of site 0's memory-tier ones, so
	// the coordinator choice, and with it the message count, is the same
	// for every seed.
	c.zoneLo = int64(2*rng.Intn((scanPartitions-scanDiskParts)/2))*scanPerPart + int64(rng.Intn(scanPerPart/2))
	c.zoneHi = c.zoneLo + scanPerPart/2
	return c
}

// scanQueries builds the six shapes, in scanShapes order.
func scanQueries(t schema.TableID, c scanConsts) []*query.Query {
	scan := func(cols []schema.ColID, pred storage.Pred) *query.ScanNode {
		return &query.ScanNode{Table: t, Cols: cols, Pred: pred}
	}
	agg := func(child query.Node, groupBy []int, aggs ...exec.AggSpec) *query.Query {
		return &query.Query{Root: &query.AggNode{Child: child, GroupBy: groupBy, Aggs: aggs}}
	}
	amount := []schema.ColID{scanColAmount}
	return []*query.Query{
		agg(scan(amount, nil), nil, exec.AggSpec{Func: exec.AggSum, Col: 0}),
		agg(scan(amount, storage.Pred{
			{Col: scanColTs, Op: storage.CmpGe, Val: types.NewTimeMicros(c.tsLo)},
			{Col: scanColTs, Op: storage.CmpLt, Val: types.NewTimeMicros(c.tsHi)},
		}), nil, exec.AggSpec{Func: exec.AggSum, Col: 0}),
		agg(scan([]schema.ColID{scanColStatus}, storage.Pred{
			{Col: scanColStatus, Op: storage.CmpEq, Val: types.NewString(c.status)},
		}), nil, exec.AggSpec{Func: exec.AggCount}),
		// SUM and COUNT, and MAX below, not SUM alone: the same scan with a
		// lone SUM would share the range shape's plan-cache key.
		agg(scan(amount, storage.Pred{
			{Col: scanColID, Op: storage.CmpGe, Val: types.NewInt64(c.zoneLo)},
			{Col: scanColID, Op: storage.CmpLt, Val: types.NewInt64(c.zoneHi)},
		}), nil, exec.AggSpec{Func: exec.AggSum, Col: 0}, exec.AggSpec{Func: exec.AggCount}),
		agg(scan([]schema.ColID{scanColGrp, scanColAmount}, nil), []int{0}, exec.AggSpec{Func: exec.AggSum, Col: 1}),
		agg(scan(amount, storage.Pred{
			{Col: scanColID, Op: storage.CmpGe, Val: types.NewInt64(c.coldLo)},
			{Col: scanColID, Op: storage.CmpLt, Val: types.NewInt64(scanRows)},
		}), nil, exec.AggSpec{Func: exec.AggMax, Col: 0}),
	}
}

func buildScan(env buildEnv) (*instance, error) {
	e := cluster.New(engineConfig(cluster.ModeColumnStore, env.clock))
	fail := func(err error) (*instance, error) { e.Close(); return nil, err }
	tbl, err := e.CreateTable(cluster.TableSpec{
		Name: "events",
		Cols: []schema.Column{
			{Name: "id", Kind: types.KindInt64},
			{Name: "grp", Kind: types.KindInt64},
			{Name: "ts", Kind: types.KindTime},
			{Name: "amount", Kind: types.KindFloat64},
			{Name: "status", Kind: types.KindString, AvgSize: 6},
			{Name: "note", Kind: types.KindString, AvgSize: 13},
		},
		MaxRows: scanRows, Partitions: scanPartitions,
	})
	if err != nil {
		return fail(err)
	}
	rng := rand.New(rand.NewSource(env.seed))
	rows := make([]schema.Row, scanRows)
	for i := range rows {
		rows[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(int64(i)),
			types.NewInt64(int64(rng.Intn(scanGroups))),
			types.NewTimeMicros(scanTsBase + rng.Int63n(scanTsSpan)),
			// Quarter units: every partial sum is exact in float64, so the
			// oracle comparison does not depend on summation order.
			types.NewFloat64(float64(rng.Intn(4000)) / 4),
			types.NewString(scanStatuses[rng.Intn(len(scanStatuses))]),
			types.NewString(fmt.Sprintf("note-%08x", rng.Uint32())),
		}}
	}
	if err := e.LoadRows(context.Background(), tbl.ID, rows); err != nil {
		return fail(err)
	}
	// ModeColumnStore loads plain columns; re-encode every partition
	// (dictionary, frame-of-reference) and push the last two to disk, so
	// the working set is both in and out of the memory tier.
	for i, m := range e.Dir.TablePartitions(tbl.ID) {
		l := storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort, Compressed: true}
		if i >= scanPartitions-scanDiskParts {
			l.Tier = storage.DiskTier
		}
		if err := e.ChangeCopyLayout(m.ID, m.Master().Site, l); err != nil {
			return fail(err)
		}
	}

	c := drawScanConsts(rng)
	queries := scanQueries(tbl.ID, c)

	// Oracle answers: plain loops over the generated rows.
	var sumAll, sumRange, sumZone, maxCold float64
	var nStatus, nZone int64
	byGrp := make([]float64, scanGroups)
	for i := range rows {
		v := rows[i].Vals
		a := v[scanColAmount].F
		sumAll += a
		byGrp[v[scanColGrp].I] += a
		if ts := v[scanColTs].I; ts >= c.tsLo && ts < c.tsHi {
			sumRange += a
		}
		if v[scanColStatus].S == c.status {
			nStatus++
		}
		if id := int64(i); id >= c.zoneLo && id < c.zoneHi {
			sumZone += a
			nZone++
		}
		if int64(i) >= c.coldLo && a > maxCold {
			maxCold = a
		}
	}
	one := func(vals ...types.Value) *exec.Rel { return &exec.Rel{Tuples: [][]types.Value{vals}} }
	grp := &exec.Rel{}
	for g, s := range byGrp {
		grp.Tuples = append(grp.Tuples, []types.Value{types.NewInt64(int64(g)), types.NewFloat64(s)})
	}
	oracle := []*exec.Rel{
		one(types.NewFloat64(sumAll)),
		one(types.NewFloat64(sumRange)),
		one(types.NewInt64(nStatus)),
		one(types.NewFloat64(sumZone), types.NewInt64(nZone)),
		grp,
		one(types.NewFloat64(maxCold)),
	}

	s := &stream{name: "client0", warm: warmOps(env.n), period: len(queries)}
	for i := 0; i < s.warm+env.n; i++ {
		k := i % len(queries)
		s.ops = append(s.ops, op{q: queries[k], shape: k, want: oracle[k]})
	}
	in := &instance{e: e, streams: []*stream{s}, shapes: scanShapes}
	// Read-only: every result was compared in-line; nothing is stored.
	in.verify = func() (int, error) { return 0, nil }
	in.probe = probeInputs{sql: scanSQL,
		txns: standInTxns(rng, tbl.ID, scanColAmount, types.NewFloat64(1), func(i int) schema.RowID { return schema.RowID(i) }, scanRows)}
	return in, nil
}
