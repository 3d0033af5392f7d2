package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/cost"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// newMorselEngine builds an engine whose table's MaxRows equals the loaded
// row count, so the horizontal partitions tile the data evenly (the shared
// newTestEngine fixture leaves most partitions empty, which defeats
// multi-partition coverage). mutate tweaks the config before New.
func newMorselEngine(t *testing.T, mode Mode, sites, parts int, rows int64, mutate func(*Config)) (*Engine, *schema.Table) {
	t.Helper()
	cfg := fastConfig(mode, sites)
	if mutate != nil {
		mutate(&cfg)
	}
	e := New(cfg)
	t.Cleanup(e.Close)
	tbl, err := e.CreateTable(TableSpec{
		Name: "items", Cols: testCols, MaxRows: schema.RowID(rows), Partitions: parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadRows(context.Background(), tbl.ID, testRows(rows)); err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

func testRows(rows int64) []schema.Row {
	data := make([]schema.Row, 0, rows)
	for i := int64(0); i < rows; i++ {
		data = append(data, schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(i), types.NewInt64(i % 10), types.NewFloat64(float64(i)), types.NewString("x"),
		}})
	}
	return data
}

// sortTuples orders a relation's tuples lexicographically so results from
// differently-ordered executions compare positionally.
func sortTuples(rel exec.Rel) {
	sort.Slice(rel.Tuples, func(i, j int) bool {
		a, b := rel.Tuples[i], rel.Tuples[j]
		for k := range a {
			if c := types.Compare(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// sameRels compares two sorted relations, exactly for ints and strings and
// within a relative tolerance for floats (partial-aggregate merge order
// differs between the executors, so float sums differ in the last ulps).
func sameRels(t *testing.T, name string, got, want exec.Rel) {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %d rows, want %d", name, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		if len(got.Tuples[i]) != len(want.Tuples[i]) {
			t.Fatalf("%s row %d: width %d, want %d", name, i, len(got.Tuples[i]), len(want.Tuples[i]))
		}
		for k := range want.Tuples[i] {
			g, w := got.Tuples[i][k], want.Tuples[i][k]
			if g.K == types.KindFloat64 && w.K == types.KindFloat64 {
				if d := math.Abs(g.Float() - w.Float()); d > 1e-6*math.Max(1, math.Abs(w.Float())) {
					t.Fatalf("%s row %d col %d: %v, want %v", name, i, k, g, w)
				}
				continue
			}
			if types.Compare(g, w) != 0 {
				t.Fatalf("%s row %d col %d: %v, want %v", name, i, k, g, w)
			}
		}
	}
}

// TestMorselMatchesLegacy holds the morsel executor to the reference
// evaluator (refEval: the legacy row operators over the generated rows):
// randomized scans, every aggregate, grouped aggregation, an aggregate over
// an aggregate, a join and a LIMIT over a scan and over a join,
// materialized and streamed, over the row layout, the column layout, a
// vertical split whose spanning scans run as stitched units, and a join
// spill budget so small that joins take the materializing fallback.
func TestMorselMatchesLegacy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  Mode
		split bool
		spill int64 // JoinSpillBudget; 0 keeps the default
	}{
		{"rowstore", ModeRowStore, false, 0},
		{"columnstore", ModeColumnStore, false, 0},
		{"vertical", ModeColumnStore, true, 0},
		{"spilling", ModeColumnStore, false, 1 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rows = 3000
			e, tbl := newMorselEngine(t, tc.mode, 2, 4, rows, func(c *Config) {
				c.MorselRows = 128
				c.ScanBatchRows = 256
				c.JoinSpillBudget = tc.spill
			})
			if tc.split {
				splitVertically(t, e, tbl, 2)
			}
			tables := refTables{tbl.ID: testRows(rows)}
			stitched := e.MetricsSnapshot().Counters["exec.morsels.stitched"]

			// Randomized projections and predicates.
			ops := []storage.CmpOp{storage.CmpLt, storage.CmpLe, storage.CmpGt, storage.CmpGe, storage.CmpEq}
			r := rand.New(rand.NewSource(7))
			for i := 0; i < 25; i++ {
				ncols := 1 + r.Intn(4)
				cols := r.Perm(4)[:ncols]
				proj := make([]schema.ColID, ncols)
				for j, c := range cols {
					proj[j] = schema.ColID(c)
				}
				var pred storage.Pred
				if r.Intn(3) > 0 {
					pred = append(pred, storage.Cond{Col: 1, Op: ops[r.Intn(len(ops))], Val: types.NewInt64(int64(r.Intn(10)))})
				}
				if r.Intn(3) == 0 {
					pred = append(pred, storage.Cond{Col: 2, Op: ops[r.Intn(len(ops))], Val: types.NewFloat64(float64(r.Intn(rows)))})
				}
				checkRef(t, e, "scan", &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: proj, Pred: pred}}, tables)
			}

			// Every ungrouped aggregate over val, with a predicate.
			for _, fn := range []exec.AggFunc{exec.AggSum, exec.AggCount, exec.AggMin, exec.AggMax, exec.AggAvg} {
				checkRef(t, e, "agg "+fn.String(), &query.Query{Root: &query.AggNode{
					Child: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{2},
						Pred: storage.Pred{{Col: 1, Op: storage.CmpLt, Val: types.NewInt64(7)}}},
					Aggs: []exec.AggSpec{{Func: fn, Col: 0}},
				}}, tables)
			}

			// Grouped aggregation with an AVG, whose running sums and counts
			// merge across the sites.
			checkRef(t, e, "groupby", &query.Query{Root: &query.AggNode{
				Child:   &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{1, 2}},
				GroupBy: []int{0},
				Aggs: []exec.AggSpec{
					{Func: exec.AggSum, Col: 1}, {Func: exec.AggCount}, {Func: exec.AggAvg, Col: 1},
				},
			}}, tables)

			// An aggregate over an aggregate, which materializes its child.
			checkRef(t, e, "agg-over-agg", &query.Query{Root: &query.AggNode{
				Child: &query.AggNode{
					Child:   &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{1, 2}},
					GroupBy: []int{0},
					Aggs:    []exec.AggSpec{{Func: exec.AggSum, Col: 1}},
				},
				Aggs: []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggMax, Col: 1}},
			}}, tables)

			// Join of two scans (the morsel executor feeds both join inputs).
			checkRef(t, e, "join", &query.Query{Root: &query.JoinNode{
				Left: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{1, 2},
					Pred: storage.Pred{{Col: 2, Op: storage.CmpLt, Val: types.NewFloat64(50)}}},
				Right: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 1},
					Pred: storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(100)}}},
				LeftKeyCol: 0, RightKeyCol: 1,
			}}, tables)

			// LIMIT: row content is nondeterministic, the count is not, and
			// every row must be one the predicate admits.
			lq := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 1},
				Pred: storage.Pred{{Col: 1, Op: storage.CmpEq, Val: types.NewInt64(3)}}}, Limit: 37}
			got, err := e.ExecuteQuery(context.Background(), e.NewSession(), lq)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Tuples) != 37 {
				t.Fatalf("limit rows: %d, want 37", len(got.Tuples))
			}
			for _, row := range got.Tuples {
				if row[1].I != 3 || row[0].I%10 != 3 {
					t.Fatalf("limit row %v fails the predicate", row)
				}
			}

			// LIMIT over a bare join root, materialized and through a
			// cursor: 37 rows, each one of the join's. Its 100-row build
			// side is over the spilling case's budget, so there the join
			// materializes and only then is cut; elsewhere the pipelined
			// probe streams and the limit ends its feeds.
			jq := &query.Query{Root: &query.JoinNode{
				Left: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{1, 2},
					Pred: storage.Pred{{Col: 2, Op: storage.CmpLt, Val: types.NewFloat64(500)}}},
				Right: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 1},
					Pred: storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(100)}}},
				LeftKeyCol: 0, RightKeyCol: 1,
			}, Limit: 37}
			joined := map[string]bool{}
			for _, row := range refEval(jq.Root, tables).Tuples {
				joined[fmt.Sprint(row)] = true
			}
			pipelined := exec.ReadJoinStats().Pipelined
			if got, err = e.ExecuteQuery(context.Background(), e.NewSession(), jq); err != nil {
				t.Fatal(err)
			}
			for name, rel := range map[string]exec.Rel{"join limit": got, "join limit (streamed)": streamSorted(t, e, jq)} {
				if len(rel.Tuples) != 37 {
					t.Fatalf("%s: %d rows, want 37", name, len(rel.Tuples))
				}
				for _, row := range rel.Tuples {
					if !joined[fmt.Sprint(row)] {
						t.Fatalf("%s: row %v is not one of the join's", name, row)
					}
				}
			}
			if moved := exec.ReadJoinStats().Pipelined - pipelined; (moved > 0) == (tc.spill > 0) {
				t.Errorf("%d joins pipelined; want some exactly when the build side fits the spill budget", moved)
			}

			if moved := e.MetricsSnapshot().Counters["exec.morsels.stitched"] - stitched; (moved > 0) != tc.split {
				t.Errorf("%d stitched units scheduled; want some exactly when the table is split", moved)
			}
		})
	}
}

// TestMorselAggMergesShares pins the coordinator's combine: the sites'
// shares merge into the result, which the coordinator observes once as an
// aggregate (the shares' groups in, the result's groups out, their average
// width); and a global aggregate that gets no share at all — every morsel
// pruned, or a join whose build side is empty — still returns its one row,
// COUNT 0 and every other aggregate NULL.
func TestMorselAggMergesShares(t *testing.T) {
	const rows = 1000
	quiet := func(c *Config) { c.MaintainInterval = time.Hour }
	e, tbl := newMorselEngine(t, ModeColumnStore, 2, 4, rows, quiet)
	dim := addGroupsTable(t, e, 0)
	aggObs := func() []cost.Features {
		var out []cost.Features
		for _, s := range e.Sites {
			for _, o := range s.DrainObservations() {
				if o.Op == cost.OpAggregate {
					if o.Variant != cost.AggHash {
						t.Errorf("aggregate observed as variant %v", o.Variant)
					}
					out = append(out, o.Features)
				}
			}
		}
		return out
	}
	aggObs()

	grouped := &query.Query{Root: &query.AggNode{
		Child:   &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{1, 2}},
		GroupBy: []int{0},
		Aggs:    []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggAvg, Col: 1}},
	}}
	want := refEval(grouped.Root, refTables{tbl.ID: testRows(rows)})
	sortTuples(want)
	sameRels(t, "grouped", runSorted(t, e, grouped), want)
	obs := aggObs()
	// Each site scans two of the four partitions, and every partition
	// holds all ten groups; a row is the key, COUNT, and AVG's sum and
	// count, 8 bytes each.
	if len(obs) != 1 || obs[0][0] != 20 || obs[0][1] != 10 || obs[0][2] != 4*8 {
		t.Errorf("coordinator aggregate observations %v, want one: 20 share groups in, 10 out, 32 bytes wide", obs)
	}

	every := []exec.AggSpec{
		{Func: exec.AggCount}, {Func: exec.AggSum, Col: 1}, {Func: exec.AggAvg, Col: 1},
		{Func: exec.AggMin, Col: 1}, {Func: exec.AggMax, Col: 0}, {Func: exec.AggCountCol, Col: 1},
	}
	for name, child := range map[string]query.Node{
		"pruned": &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{1, 2},
			Pred: storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(0)}}},
		"empty-build": factDimJoin(tbl, dim).Root,
	} {
		res := runSorted(t, e, &query.Query{Root: &query.AggNode{Child: child, Aggs: every}})
		if len(res.Tuples) != 1 {
			t.Fatalf("%s: %d rows, want 1", name, len(res.Tuples))
		}
		for i, v := range res.Tuples[0] {
			if f := every[i].Func; f == exec.AggCount || f == exec.AggCountCol {
				if v.K != types.KindInt64 || v.I != 0 {
					t.Errorf("%s: %v = %v, want 0", name, f, v)
				}
			} else if !v.IsNull() {
				t.Errorf("%s: %v = %v, want NULL", name, f, v)
			}
		}
		if obs := aggObs(); len(obs) != 1 || obs[0][0] != 0 || obs[0][1] != 1 {
			t.Errorf("%s: coordinator aggregate observations %v, want one: nothing in, 1 out", name, obs)
		}
	}
}

// TestMorselZoneMapPruning pins the pruning accounting: with 4 partitions
// of 250 rows and 100-row morsels (3 morsels each), a predicate excluding
// the lower half of the id space must prune exactly the two low partitions'
// morsels and schedule exactly the two high partitions'.
func TestMorselZoneMapPruning(t *testing.T) {
	e, tbl := newMorselEngine(t, ModeRowStore, 2, 4, 1000, func(c *Config) {
		c.MorselRows = 100
	})
	q := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 2},
		Pred: storage.Pred{{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(500)}}}}
	res, err := e.ExecuteQuery(context.Background(), e.NewSession(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 500 {
		t.Fatalf("rows = %d, want 500", len(res.Tuples))
	}
	snap := e.MetricsSnapshot()
	if got := snap.Counters["exec.morsels.pruned"]; got != 6 {
		t.Errorf("pruned morsels = %d, want 6", got)
	}
	if got := snap.Counters["exec.morsels.scheduled"]; got != 6 {
		t.Errorf("scheduled morsels = %d, want 6", got)
	}
	if got := snap.Counters["exec.morsels.rows"]; got != 500 {
		t.Errorf("morsel rows = %d, want 500", got)
	}
}

// morselSizes are the scan settings the early-termination tests run
// under: small morsels and batches, so a table of thousands of rows is
// thousands of units, and the defaults, whose morsels a LIMIT's first rows
// come from long before a worker finishes one.
var morselSizes = []struct {
	name   string
	mutate func(*Config)
}{
	{"small", func(c *Config) {
		c.MorselRows = 32
		c.ScanBatchRows = 64
	}},
	{"default", nil},
}

// TestMorselLimitStopsScheduling verifies early termination reaches the
// feeders: a LIMIT query over a table worth many morsels must schedule
// only a small fraction of them before the coordinator cancels the feeds
// (backpressure bounds how far scheduling can run ahead), with 16-row
// morsels and with the default ones.
func TestMorselLimitStopsScheduling(t *testing.T) {
	for _, tc := range []struct {
		name         string
		rows, morsel int64
		mutate       func(*Config)
	}{
		{"small", 40000, 16, func(c *Config) {
			c.MorselRows = 16
			c.ScanBatchRows = 64
		}},
		{"default", 200000, exec.DefaultMorselRows, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, tbl := newMorselEngine(t, ModeRowStore, 2, 4, tc.rows, tc.mutate)
			before := e.MetricsSnapshot().Counters["exec.morsels.scheduled"]
			q := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0}}, Limit: 32}
			res, err := e.ExecuteQuery(context.Background(), e.NewSession(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tuples) != 32 {
				t.Fatalf("rows = %d, want 32", len(res.Tuples))
			}
			total := tc.rows / tc.morsel
			delta := e.MetricsSnapshot().Counters["exec.morsels.scheduled"] - before
			if delta == 0 {
				t.Fatal("no morsels scheduled")
			}
			if delta >= total/2 {
				t.Errorf("scheduled %d of %d morsels; early termination did not stop the feed", delta, total)
			}
		})
	}
}

// TestMorselStreamMatchesMaterialized drains a streaming cursor and checks
// it yields exactly the materialized result, and that a stream-side LIMIT
// ends the cursor after that many rows with no error. The leftover case
// runs three scan workers per site over 1000-row morsels, 500 of whose
// rows pass, with 97-row batches: 97 is prime and no worker holds 97
// morsels, so no worker's row count is a multiple of the batch size. The
// cursor is read only after a pause: the first worker to claim units fills
// the channel and blocks, so its site's other workers claim the rest, and
// each ends with a partial batch that merges into the site's share. Which
// workers get rows still depends on scheduling, so the case runs several
// times; every row must arrive exactly once, gathered and streamed.
func TestMorselStreamMatchesMaterialized(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rows   int64
		runs   int
		pause  time.Duration
		mutate func(*Config)
	}{
		{"default", 2000, 1, 0, nil},
		{"leftovers", 20000, 4, 10 * time.Millisecond, func(c *Config) {
			c.Site.ScanWorkers = 3
			c.MorselRows = 1000
			c.ScanBatchRows = 97
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, tbl := newMorselEngine(t, ModeColumnStore, 2, 4, tc.rows, tc.mutate)
			sess := e.NewSession()
			q := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 2},
				Pred: storage.Pred{{Col: 1, Op: storage.CmpLt, Val: types.NewInt64(5)}}}}
			ref := refEval(q.Root, refTables{tbl.ID: testRows(tc.rows)})
			sortTuples(ref)

			for i := 0; i < tc.runs; i++ {
				want, err := e.ExecuteQuery(context.Background(), sess, q)
				if err != nil {
					t.Fatal(err)
				}
				cur, err := e.ExecuteQueryStream(context.Background(), sess, q)
				if err != nil {
					t.Fatal(err)
				}
				time.Sleep(tc.pause)
				got := exec.Rel{Cols: cur.Cols()}
				for cur.Next() {
					row := append([]types.Value(nil), cur.Row()...)
					got.Tuples = append(got.Tuples, row)
				}
				if err := cur.Err(); err != nil {
					t.Fatal(err)
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
				sortTuples(got)
				sortTuples(want)
				// The ids are unique, so equal sorted results mean every
				// row arrived exactly once.
				sameRels(t, "gathered", want, ref)
				sameRels(t, "stream", got, want)
			}

			lq := &query.Query{Root: q.Root, Limit: 10}
			cur, err := e.ExecuteQueryStream(context.Background(), sess, lq)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for cur.Next() {
				n++
			}
			if n != 10 || cur.Err() != nil {
				t.Fatalf("limited stream: %d rows, err %v", n, cur.Err())
			}
			cur.Close()
		})
	}
}

// TestMorselCancelNoGoroutineLeak abandons streams mid-scan — by cursor
// Close and by context cancellation — and requires the goroutine count to
// settle back to its baseline: Close drains until the producer closes the
// batch channel, so every feeder and worker must have exited. It runs with
// small morsels and with the default ones.
func TestMorselCancelNoGoroutineLeak(t *testing.T) {
	for _, size := range morselSizes {
		t.Run(size.name, func(t *testing.T) {
			e, tbl := newMorselEngine(t, ModeRowStore, 2, 4, 20000, size.mutate)
			sess := e.NewSession()
			q := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 1, 2}}}

			baseline := runtime.NumGoroutine()
			for i := 0; i < 10; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				cur, err := e.ExecuteQueryStream(ctx, sess, q)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 3 && cur.Next(); k++ {
				}
				if i%2 == 0 {
					cancel() // abandon via context; Close still drains the workers
				}
				if err := cur.Close(); err != nil && i%2 != 0 {
					t.Fatalf("close: %v", err)
				}
				cancel()
			}

			deadline := time.Now().Add(5 * time.Second)
			for {
				if n := runtime.NumGoroutine(); n <= baseline+3 {
					return
				}
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
						runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestMorselContextCancelAborts cancels a materializing query's context
// and expects a prompt context.Canceled, not a hang or a partial result,
// with small morsels and with the default ones.
func TestMorselContextCancelAborts(t *testing.T) {
	for _, size := range morselSizes {
		t.Run(size.name, func(t *testing.T) {
			e, tbl := newMorselEngine(t, ModeRowStore, 2, 4, 20000, size.mutate)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			q := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0}}}
			if _, err := e.ExecuteQuery(ctx, e.NewSession(), q); err == nil {
				t.Fatal("cancelled query returned nil error")
			}
		})
	}
}

// TestMorselSinkChoosesBatchLength holds the sinks to the vector length
// they ask for. An aggregate over column copies reads each unit as one
// batch — storage emits as many batches as the feeds scheduled units — at
// the default morsel size and at a small one; a cursor over the same table
// reads batches of at most ScanBatchRows rows, several per unit (what it
// hands over may be longer: a site's leftover rows go as one relation).
func TestMorselSinkChoosesBatchLength(t *testing.T) {
	quiet := func(c *Config) {
		c.ReplicationInterval = time.Hour
		c.MaintainInterval = time.Hour
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", quiet},
		{"small", func(c *Config) {
			quiet(c)
			c.MorselRows = 1000
			c.ScanBatchRows = 97
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, tbl := newMorselEngine(t, ModeColumnStore, 2, 4, 40000, tc.mutate)
			sess := e.NewSession()
			ctx := context.Background()
			scan := &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{1, 2}}
			measure := func(run func()) (units, batches, rows int64) {
				units0, stats0 := e.MetricsSnapshot().Counters["exec.morsels.scheduled"], storage.ReadBatchStats()
				run()
				stats := storage.ReadBatchStats()
				return e.MetricsSnapshot().Counters["exec.morsels.scheduled"] - units0,
					stats.Batches - stats0.Batches, stats.RowsScanned - stats0.RowsScanned
			}

			agg := &query.Query{Root: &query.AggNode{Child: scan, GroupBy: []int{0},
				Aggs: []exec.AggSpec{{Func: exec.AggSum, Col: 1}}}}
			units, batches, rows := measure(func() {
				if _, err := e.ExecuteQuery(ctx, sess, agg); err != nil {
					t.Fatal(err)
				}
			})
			if units == 0 || batches != units || rows != 40000 {
				t.Errorf("aggregate: %d batches over %d units, %d rows; want one batch a unit over 40000 rows", batches, units, rows)
			}

			batchRows := int64(e.scanBatchRows())
			units, batches, rows = measure(func() {
				cur, err := e.ExecuteQueryStream(ctx, sess, &query.Query{Root: scan})
				if err != nil {
					t.Fatal(err)
				}
				for cur.Next() {
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
			})
			if rows != 40000 || batches <= units || batches*batchRows < rows {
				t.Errorf("cursor: %d batches over %d units, %d rows; want batches of at most %d rows, several a unit", batches, units, rows, batchRows)
			}
		})
	}
}

// TestMorselFeedClaimsEachUnitOnce drains one feed from several goroutines
// at once: every unit is handed out exactly once, and after a cancel no
// worker is handed another.
func TestMorselFeedClaimsEachUnitOnce(t *testing.T) {
	for _, size := range []int{1, exec.DefaultMorselRows} {
		t.Run(strconv.Itoa(size), func(t *testing.T) { feedClaimsEachUnitOnce(t, size) })
	}
}

// feedClaimsEachUnitOnce is TestMorselFeedClaimsEachUnitOnce over 10 000
// units of size rows each.
func feedClaimsEachUnitOnce(t *testing.T, size int) {
	e, _ := newMorselEngine(t, ModeRowStore, 1, 1, 16, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := &morselJob{e: e, ctx: ctx, cancel: cancel}
	units := make([]morselUnit, 10000)
	for i := range units {
		units[i].lo, units[i].hi = schema.RowID(i*size), schema.RowID((i+1)*size)
	}
	feed := &morselFeed{j: j, units: units}
	claimed := make([]atomic.Int32, len(units))
	var handedOut atomic.Int64 // units handed out once cancel has returned
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u, ok := feed.next(); ok; u, ok = feed.next() {
				i := int(u.lo) / size
				claimed[i].Add(1)
				if i == 7000 {
					cancel()
					handedOut.Store(feed.cursor.Load())
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for i := range claimed {
		n := int(claimed[i].Load())
		if n > 1 {
			t.Fatalf("unit %d claimed %d times", i, n)
		}
		total += n
	}
	// The cursor hands units out in order, so 0..7000 were claimed when the
	// job was cancelled, and others may have been while cancel ran; after it
	// returned, each of the other three workers may have been past its
	// cancellation check already and taken one more.
	if max := int(handedOut.Load()) + 3; total < 7001 || total > max {
		t.Errorf("claimed %d units, want 7001 to %d", total, max)
	}
	if _, ok := feed.next(); ok {
		t.Error("a cancelled feed handed out a unit")
	}
}

// TestImpliedConjunctsKeepNullsOut loads a table whose grp column holds
// NULLs beside values 0..9 and scans it with conjuncts that every non-NULL
// grp satisfies — alone, beside a conjunct the id column's zone map proves,
// under an aggregate, and as the bounds a join pushes into its probe scan.
// A zone map that ignored NULLs would drop those conjuncts and return the
// NULL rows; the answers must equal the reference evaluator's, with no NULL
// grp among them, on column copies and on row copies alike.
func TestImpliedConjunctsKeepNullsOut(t *testing.T) {
	for _, mode := range []Mode{ModeColumnStore, ModeRowStore} {
		t.Run(mode.String(), func(t *testing.T) { impliedConjunctsKeepNullsOut(t, mode) })
	}
}

func impliedConjunctsKeepNullsOut(t *testing.T, mode Mode) {
	const n = 1000
	e := New(fastConfig(mode, 2))
	t.Cleanup(e.Close)
	tbl, err := e.CreateTable(TableSpec{Name: "items", Cols: testCols, MaxRows: n, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(n)
	for i := range rows {
		if i%7 == 3 {
			rows[i].Vals[1] = types.Null()
		}
	}
	if err := e.LoadRows(context.Background(), tbl.ID, rows); err != nil {
		t.Fatal(err)
	}
	dim := addGroupsTable(t, e, 10)
	tables := refTables{tbl.ID: rows, dim.ID: groupsRows(10)}
	ge, le := storage.CmpGe, storage.CmpLe
	grp := func(op storage.CmpOp, v int64) storage.Cond {
		return storage.Cond{Col: 1, Op: op, Val: types.NewInt64(v)}
	}
	for _, pred := range []storage.Pred{
		{grp(ge, 0)},
		{grp(ge, 0), grp(le, 9), {Col: 0, Op: ge, Val: types.NewInt64(0)}},
		{grp(storage.CmpNe, 100)},
		{{Col: 2, Op: ge, Val: types.NewFloat64(-1)}, grp(storage.CmpLt, 10)},
	} {
		q := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 1}, Pred: pred}}
		checkRef(t, e, fmt.Sprint("scan ", pred), q, tables)
		for _, row := range runSorted(t, e, q).Tuples {
			if row[1].IsNull() {
				t.Fatalf("scan %v returned row %v with a NULL grp", pred, row)
			}
		}
		checkRef(t, e, fmt.Sprint("count ", pred), &query.Query{Root: &query.AggNode{
			Child: q.Root, Aggs: []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggSum, Col: 0}},
		}}, tables)
	}
	checkRef(t, e, "join", factDimJoin(tbl, dim), tables)
	checkRef(t, e, "join agg", factDimJoinAgg(tbl, dim), tables)
}

// TestImpliedConjunctsUnderMovingRanges races range scans against updates
// that move grp values outside the range each partition's zone map held
// when the scan began, and against layout flips that rebuild the first
// partition's map over and over (run with -race). A conjunct the scan
// dropped as implied must still hold for every row it returns, whatever
// the writers did meanwhile.
func TestImpliedConjunctsUnderMovingRanges(t *testing.T) {
	const n = 400
	e, tbl := newMorselEngine(t, ModeColumnStore, 2, 4, n, func(c *Config) { c.MorselRows = 64 })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes atomic.Int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		sess := e.NewSession()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := 10 + i // above every range a scan below admits...
			if i%2 == 0 {
				v = -i // ...or below it
			}
			_, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
				updateOp(tbl, (i*37)%n, 1, types.NewInt64(v)),
			}})
			if err != nil {
				t.Error(err)
				return
			}
			writes.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		m := e.Dir.TablePartitions(tbl.ID)[0]
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l := joinDiffLayouts[i%len(joinDiffLayouts)].l
			if err := e.ChangeCopyLayout(m.ID, m.Master().Site, l); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	preds := []storage.Pred{
		{{Col: 1, Op: storage.CmpGe, Val: types.NewInt64(0)}, {Col: 1, Op: storage.CmpLe, Val: types.NewInt64(9)}},
		{{Col: 1, Op: storage.CmpLt, Val: types.NewInt64(10)}},
		{{Col: 1, Op: storage.CmpGt, Val: types.NewInt64(-1)}, {Col: 0, Op: storage.CmpGe, Val: types.NewInt64(0)}},
	}
	for round := 0; round < 60 || writes.Load() < 100; round++ {
		pred := preds[round%len(preds)]
		q := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 1}, Pred: pred}}
		got, err := e.ExecuteQuery(context.Background(), e.NewSession(), q)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range got.Tuples {
			if !pred.Match([]types.Value{row[0], row[1]}) {
				t.Fatalf("round %d: row %v fails %v", round, row, pred)
			}
		}
		if round > 10000 {
			t.Fatal("the writer made no progress")
		}
	}
	close(stop)
	wg.Wait()
}
