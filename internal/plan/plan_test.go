package plan

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"proteus/internal/cost"
	"proteus/internal/exec"
	"proteus/internal/forecast"
	"proteus/internal/metadata"
	"proteus/internal/partition"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
	"proteus/internal/zonemap"
)

func testPlanner() (*Planner, *metadata.Directory) {
	dir := metadata.NewDirectory(forecast.DefaultConfig())
	dir.InitColStats(1, []float64{8, 8, 8})
	dir.InitColStats(2, []float64{8, 16})
	return &Planner{
		Dir:       dir,
		Model:     cost.NewModel(),
		Decisions: NewDecisionCache(),
		Plans:     NewPlanCache(),
		Epoch:     &Epoch{},
		MaxRow:    1 << 30,
	}, dir
}

func register(dir *metadata.Directory, table schema.TableID, rlo, rhi schema.RowID,
	clo, chi schema.ColID, site simnet.SiteID, l storage.Layout, rows int) *metadata.PartitionMeta {
	kinds := make([]types.Kind, chi-clo)
	for i := range kinds {
		kinds[i] = types.KindInt64
	}
	zm := zonemap.New(kinds)
	for i := 0; i < rows; i++ {
		zm.Observe([]types.Value{types.NewInt64(int64(i))})
	}
	b := partition.Bounds{Table: table, RowStart: rlo, RowEnd: rhi, ColStart: clo, ColEnd: chi}
	return dir.Register(dir.AllocID(), b, metadata.Replica{Site: site, Layout: l}, zm)
}

func TestPlanScanSegmentsAndPieces(t *testing.T) {
	pl, dir := testPlanner()
	// Table 1: rows [0,100) full cols at site 0; rows [100,200) split
	// vertically between sites.
	register(dir, 1, 0, 100, 0, 3, 0, storage.DefaultRowLayout(), 100)
	register(dir, 1, 100, 200, 0, 2, 1, storage.DefaultColumnLayout(), 100)
	register(dir, 1, 100, 200, 2, 3, 0, storage.DefaultRowLayout(), 100)

	node, err := pl.PlanQuery(&query.Query{Root: &query.ScanNode{
		Table: 1, Cols: []schema.ColID{0, 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ps := node.(*PScan)
	if len(ps.Segments) != 2 {
		t.Fatalf("segments = %d", len(ps.Segments))
	}
	if len(ps.Segments[0].Pieces) != 1 || len(ps.Segments[1].Pieces) != 2 {
		t.Errorf("pieces = %d / %d", len(ps.Segments[0].Pieces), len(ps.Segments[1].Pieces))
	}
	if ps.EstRows <= 0 {
		t.Error("no cardinality estimate")
	}
}

func TestPlanCacheReuseAndEpochInvalidation(t *testing.T) {
	pl, dir := testPlanner()
	register(dir, 1, 0, 100, 0, 3, 0, storage.DefaultRowLayout(), 100)
	q := &query.Query{Root: &query.ScanNode{Table: 1, Cols: []schema.ColID{0}}}

	p1, err := pl.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := pl.PlanQuery(q)
	if p1 != p2 {
		t.Error("plan not reused within epoch")
	}
	hits, _ := pl.Plans.Stats()
	if hits == 0 {
		t.Error("no cache hit recorded")
	}
	pl.Epoch.Bump() // a single layout change invalidates the plan (§5.3.3)
	p3, _ := pl.PlanQuery(q)
	if p1 == p3 {
		t.Error("plan survived epoch bump")
	}
}

// TestPlanCacheKeysOnConstants pins the fingerprint: queries of one shape
// whose predicates or aggregate inputs differ must not share a cached plan
// (the cached PScan carries the predicate it was planned with), while an
// identical query still hits.
func TestPlanCacheKeysOnConstants(t *testing.T) {
	pl, dir := testPlanner()
	register(dir, 1, 0, 100, 0, 3, 0, storage.DefaultRowLayout(), 100)
	scan := func(op storage.CmpOp, v types.Value) *query.ScanNode {
		return &query.ScanNode{Table: 1, Cols: []schema.ColID{0, 1}, Pred: storage.Pred{{Col: 0, Op: op, Val: v}}}
	}
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	variants := []query.Node{
		scan(storage.CmpLt, types.NewInt64(10)),
		scan(storage.CmpLt, types.NewInt64(20)),
		scan(storage.CmpLe, types.NewInt64(10)),
		scan(storage.CmpLt, types.NewFloat64(10)),
		scan(storage.CmpLt, types.NewString("10")),
		scan(storage.CmpLt, types.NewTime(base)),
		scan(storage.CmpLt, types.NewTime(base.Add(time.Microsecond))), // same second
		&query.AggNode{Child: scan(storage.CmpLt, types.NewInt64(10)), Aggs: []exec.AggSpec{{Func: exec.AggSum, Col: 0}}},
		&query.AggNode{Child: scan(storage.CmpLt, types.NewInt64(10)), Aggs: []exec.AggSpec{{Func: exec.AggSum, Col: 1}}},
	}
	seen := map[string]int{}
	for i, n := range variants {
		fp := fingerprint(n)
		if j, dup := seen[fp]; dup {
			t.Errorf("variants %d and %d share fingerprint %q", j, i, fp)
		}
		seen[fp] = i
	}
	for i, n := range variants {
		node, err := pl.PlanQuery(&query.Query{Root: n})
		if err != nil {
			t.Fatal(err)
		}
		want := n
		if a, ok := n.(*query.AggNode); ok {
			want, node = a.Child, node.(*PAgg).Child
		}
		if got := node.(*PScan).Pred[0]; got != want.(*query.ScanNode).Pred[0] {
			t.Errorf("variant %d planned with predicate %+v, want %+v", i, got, want.(*query.ScanNode).Pred[0])
		}
	}
	_, misses := pl.Plans.Stats()
	if p1, _ := pl.PlanQuery(&query.Query{Root: variants[1]}); p1 == nil {
		t.Fatal("no plan")
	}
	if _, after := pl.Plans.Stats(); after != misses {
		t.Error("re-planning an identical query missed the cache")
	}
}

// TestPlanCacheBounded sweeps a constant past the entry cap: the cache is
// dropped whole at the cap instead of growing with the sweep.
func TestPlanCacheBounded(t *testing.T) {
	pl, dir := testPlanner()
	register(dir, 1, 0, 100, 0, 3, 0, storage.DefaultRowLayout(), 100)
	for i := 0; i < 2*maxCachedPlans+10; i++ {
		q := &query.Query{Root: &query.ScanNode{Table: 1, Cols: []schema.ColID{0},
			Pred: storage.Pred{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(int64(i))}}}}
		if _, err := pl.PlanQuery(q); err != nil {
			t.Fatal(err)
		}
		if n := len(pl.Plans.plans); n > maxCachedPlans {
			t.Fatalf("cache holds %d plans after %d queries, cap %d", n, i+1, maxCachedPlans)
		}
	}
}

// TestPlannerKeepsAggs pins the cached aggregate plan: on one site or
// many, PAgg carries the query's aggregate list as written, AVG and COUNT
// included, since every site accumulates the aggregates themselves and the
// coordinator merges the sites' accumulators.
func TestPlannerKeepsAggs(t *testing.T) {
	for _, sites := range []int{1, 2} {
		pl, dir := testPlanner()
		register(dir, 1, 0, 100, 0, 3, 0, storage.DefaultRowLayout(), 100)
		register(dir, 1, 100, 200, 0, 3, simnet.SiteID(sites-1), storage.DefaultRowLayout(), 100)

		aggs := []exec.AggSpec{
			{Func: exec.AggAvg, Col: 1},
			{Func: exec.AggCount},
			{Func: exec.AggMin, Col: 1},
			{Func: exec.AggCountCol, Col: 0},
		}
		node, err := pl.PlanQuery(&query.Query{Root: &query.AggNode{
			Child:   &query.ScanNode{Table: 1, Cols: []schema.ColID{0, 1}},
			GroupBy: []int{0},
			Aggs:    aggs,
		}})
		if err != nil {
			t.Fatal(err)
		}
		pa := node.(*PAgg)
		if !slices.Equal(pa.Aggs, aggs) || !slices.Equal(pa.GroupBy, []int{0}) {
			t.Errorf("%d sites: plan aggregates %v by %v, want %v by [0]", sites, pa.Aggs, pa.GroupBy, aggs)
		}
	}
}

// TestPlanTxnCoordinator: a transaction runs at the write site holding most
// of its writes and reads of written partitions, the first site written on
// a tie; a read-only one at its first read's master.
func TestPlanTxnCoordinator(t *testing.T) {
	pl, dir := testPlanner()
	register(dir, 1, 0, 100, 0, 3, 0, storage.DefaultRowLayout(), 100)
	register(dir, 1, 100, 200, 0, 3, 1, storage.DefaultRowLayout(), 100)
	read := func(row schema.RowID) query.Op {
		return query.Op{Kind: query.OpRead, Table: 1, Row: row, Cols: []schema.ColID{1}}
	}
	upd := func(row schema.RowID) query.Op {
		return query.Op{Kind: query.OpUpdate, Table: 1, Row: row, Cols: []schema.ColID{1}, Vals: []types.Value{types.NewInt64(1)}}
	}
	for _, tc := range []struct {
		ops  []query.Op
		want simnet.SiteID
	}{
		{[]query.Op{upd(5), read(150), upd(150)}, 1},
		{[]query.Op{upd(150), upd(5)}, 1},
		{[]query.Op{upd(5), upd(150)}, 0},
		{[]query.Op{read(150), upd(5), upd(150), upd(6)}, 0},
		{[]query.Op{read(150), read(5)}, 1},
	} {
		tp, err := pl.PlanTxn(&query.Txn{Ops: tc.ops})
		if err != nil {
			t.Fatal(err)
		}
		if tp.Coordinator != tc.want {
			t.Errorf("%v: coordinator %d, want %d", tc.ops, tp.Coordinator, tc.want)
		}
	}
}

func TestPlanTxnBindings(t *testing.T) {
	pl, dir := testPlanner()
	register(dir, 1, 0, 100, 0, 2, 0, storage.DefaultRowLayout(), 100)
	register(dir, 1, 0, 100, 2, 3, 1, storage.DefaultRowLayout(), 100) // vertical piece

	tp, err := pl.PlanTxn(&query.Txn{Ops: []query.Op{
		{Kind: query.OpRead, Table: 1, Row: 5, Cols: []schema.ColID{0}},
		{Kind: query.OpUpdate, Table: 1, Row: 5, Cols: []schema.ColID{0, 2},
			Vals: []types.Value{types.NewInt64(1), types.NewInt64(2)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Bindings) != 2 {
		t.Fatalf("bindings = %d", len(tp.Bindings))
	}
	// The update touches both vertical pieces -> two write pids, two sites.
	if c := tp.Bindings[1].Copies; len(tp.WritePIDs) != 2 || len(c) != 2 || c[0].Site == c[1].Site {
		t.Errorf("write pids=%v copies=%v", tp.WritePIDs, c)
	}
	// Read pid overlaps a write pid, so ReadPIDs excludes it.
	if len(tp.ReadPIDs) != 0 {
		t.Errorf("read pids = %v", tp.ReadPIDs)
	}
	// A read-only transaction runs at its first read's master, so a replica
	// elsewhere does not draw the read; a transaction that also writes the
	// partition — even in a later op — reads its master, which the write
	// contacts anyway.
	m := register(dir, 1, 100, 200, 0, 3, 1, storage.DefaultRowLayout(), 100)
	m.AddReplica(metadata.Replica{Site: 0, Layout: storage.DefaultRowLayout()})
	read := query.Op{Kind: query.OpRead, Table: 1, Row: 150, Cols: []schema.ColID{0}}
	write := query.Op{Kind: query.OpUpdate, Table: 1, Row: 150, Cols: []schema.ColID{1}, Vals: []types.Value{types.NewInt64(3)}}
	for _, tc := range []struct {
		ops  []query.Op
		want simnet.SiteID
	}{{[]query.Op{read}, 1}, {[]query.Op{read, write}, 1}} {
		tp, err := pl.PlanTxn(&query.Txn{Ops: tc.ops})
		if err != nil {
			t.Fatal(err)
		}
		if got := tp.Bindings[0].Copies[0].Site; got != tc.want {
			t.Errorf("%d ops: read bound to site %d, want %d", len(tc.ops), got, tc.want)
		}
	}
	// A read of an unwritten partition binds the copy at the coordinator:
	// its replica when the transaction writes at site 1, its master when it
	// writes at site 0. The two plans share the planner's decision cache,
	// so the second also shows that a choice cached for one coordinator
	// does not serve another.
	other := register(dir, 1, 200, 300, 0, 3, 0, storage.DefaultRowLayout(), 100)
	other.AddReplica(metadata.Replica{Site: 1, Layout: storage.DefaultRowLayout()})
	unwritten := query.Op{Kind: query.OpRead, Table: 1, Row: 250, Cols: []schema.ColID{0}}
	atZero := query.Op{Kind: query.OpUpdate, Table: 1, Row: 5, Cols: []schema.ColID{0}, Vals: []types.Value{types.NewInt64(4)}}
	for _, tc := range []struct {
		write query.Op
		want  simnet.SiteID
	}{{write, 1}, {atZero, 0}} {
		tp, err := pl.PlanTxn(&query.Txn{Ops: []query.Op{tc.write, unwritten}})
		if err != nil {
			t.Fatal(err)
		}
		if tp.Coordinator != tc.want {
			t.Fatalf("coordinator %d, want %d", tp.Coordinator, tc.want)
		}
		if got := tp.Bindings[1].Copies[0]; got.Site != tc.want {
			t.Errorf("coordinated at %d: unwritten read bound to site %d", tc.want, got.Site)
		}
		if !slices.Equal(tp.ReadPIDs, []partition.ID{other.ID}) {
			t.Errorf("coordinated at %d: read pids %v, want [%d]", tc.want, tp.ReadPIDs, other.ID)
		}
	}
	// Unknown row fails.
	if _, err := pl.PlanTxn(&query.Txn{Ops: []query.Op{
		{Kind: query.OpRead, Table: 9, Row: 5, Cols: []schema.ColID{0}},
	}}); err == nil {
		t.Error("plan for unknown table succeeded")
	}
}

// TestPlanTxnConcurrentCoordinators plans transactions coordinated at
// different sites from several goroutines on one planner, its decision
// cache cold, and requires each plan to equal the plan a planner of its own
// makes serially.
func TestPlanTxnConcurrentCoordinators(t *testing.T) {
	pl, dir := testPlanner()
	for site := simnet.SiteID(0); site < 3; site++ {
		lo := schema.RowID(site) * 100
		m := register(dir, 1, lo, lo+100, 0, 3, site, storage.DefaultRowLayout(), 100)
		for r := simnet.SiteID(0); r < 3; r++ {
			if r != site {
				m.AddReplica(metadata.Replica{Site: r, Layout: storage.DefaultColumnLayout()})
			}
		}
	}
	read := func(row schema.RowID) query.Op {
		return query.Op{Kind: query.OpRead, Table: 1, Row: row, Cols: []schema.ColID{1}}
	}
	upd := func(row schema.RowID) query.Op {
		return query.Op{Kind: query.OpUpdate, Table: 1, Row: row, Cols: []schema.ColID{1}, Vals: []types.Value{types.NewInt64(1)}}
	}
	txns := []*query.Txn{
		{Ops: []query.Op{upd(5), read(150), read(250)}},
		{Ops: []query.Op{read(50), upd(150), read(250)}},
		{Ops: []query.Op{read(50), read(150), upd(250)}},
		{Ops: []query.Op{read(250), read(50), read(150)}},
		{Ops: []query.Op{upd(150), read(5), upd(160), upd(250)}},
	}
	fresh := func() *Planner {
		return &Planner{Dir: pl.Dir, Model: pl.Model, Decisions: NewDecisionCache(), Plans: NewPlanCache(), Epoch: pl.Epoch, MaxRow: pl.MaxRow}
	}
	want := make([]string, len(txns))
	coords := map[simnet.SiteID]bool{}
	for i, txn := range txns {
		tp, err := fresh().PlanTxn(txn)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = bound(tp)
		coords[tp.Coordinator] = true
	}
	if len(coords) != 3 {
		t.Fatalf("the transactions are coordinated at %d sites, want 3", len(coords))
	}
	shared := fresh()
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(txns)
				tp, err := shared.PlanTxn(txns[k])
				if err != nil {
					errs <- err.Error()
					return
				}
				if got := bound(tp); got != want[k] {
					errs <- fmt.Sprintf("transaction %d planned %s, serially %s", k, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// bound renders what a transaction plan decides: its coordinator, its
// read and write sets, and each op's copies.
func bound(tp *TxnPlan) string {
	s := fmt.Sprint(tp.Coordinator, tp.ReadPIDs, tp.WritePIDs)
	for _, b := range tp.Bindings {
		s += fmt.Sprint(b.Copies)
	}
	return s
}

func TestPieceCols(t *testing.T) {
	b := partition.Bounds{Table: 1, RowStart: 0, RowEnd: 10, ColStart: 2, ColEnd: 5}
	m := &metadata.PartitionMeta{ID: 1, Bounds: b}
	op := query.Op{Kind: query.OpUpdate, Cols: []schema.ColID{0, 3, 4}, Vals: []types.Value{{}, {}, {}}}
	cols, idx := PieceCols(op, m)
	if len(cols) != 2 || cols[0] != 3 || cols[1] != 4 || idx[0] != 1 || idx[1] != 2 {
		t.Errorf("cols=%v idx=%v", cols, idx)
	}
	ins := query.Op{Kind: query.OpInsert}
	cols, idx = PieceCols(ins, m)
	if len(cols) != 3 || cols[0] != 2 || idx[0] != 2 {
		t.Errorf("insert cols=%v idx=%v", cols, idx)
	}
}

func TestDecisionCacheBuckets(t *testing.T) {
	if Bucket(0) != 0 || Bucket(1) != 1 {
		t.Error("small buckets wrong")
	}
	if Bucket(1000) == Bucket(4000) {
		t.Error("1000 and 4000 should bucket apart")
	}
	if Bucket(1000) != Bucket(1100) {
		t.Error("1000 and 1100 should share a bucket")
	}
	c := NewDecisionCache()
	k := Key("joinalg", []string{"x"}, []float64{1000})
	if _, ok := c.Lookup(k); ok {
		t.Error("empty cache hit")
	}
	c.Store(k, 42)
	if v, ok := c.Lookup(k); !ok || v.(int) != 42 {
		t.Error("store/lookup failed")
	}
	c.Invalidate()
	if _, ok := c.Lookup(k); ok {
		t.Error("invalidate failed")
	}
	h, m := c.Stats()
	if h != 1 || m != 2 {
		t.Errorf("stats = %d/%d", h, m)
	}
}

// TestCopyKeysMatchFormattedKeysWithoutAllocating pins the copy-choice keys
// to the bytes the fmt-built keys had ("%d@%s" tags through Key), so cache
// contents are what they were, and requires that building one and looking
// it up allocates nothing.
func TestCopyKeysMatchFormattedKeysWithoutAllocating(t *testing.T) {
	copies := []metadata.Replica{
		{Site: 0, Layout: storage.DefaultRowLayout()},
		{Site: 12, Layout: storage.Layout{Format: storage.ColumnFormat, Tier: storage.DiskTier, SortBy: 3, Compressed: true}},
		{Site: 1, Layout: storage.DefaultColumnLayout()},
	}
	var tags []string
	for _, c := range copies {
		tags = append(tags, fmt.Sprintf("%d@%s", c.Site, c.Layout))
	}
	want := Key("copy", tags, []float64{5000, 3})
	if want != "copy|0@row/memory|12@column/disk/sorted(3)/rle|1@column/memory|12|2" {
		t.Fatalf("formatted key = %q", want)
	}
	var buf [128]byte
	if got := string(appendBuckets(appendCopiesKey(buf[:0], "copy", copies), 5000, 3)); got != want {
		t.Errorf("appended key = %q, want %q", got, want)
	}

	c := NewDecisionCache()
	c.Store(want, copies[1])
	allocs := testing.AllocsPerRun(100, func() {
		var buf [128]byte
		key := appendBuckets(appendCopiesKey(buf[:0], "copy", copies), 5000, 3)
		if _, ok := c.lookupBytes(key); !ok {
			t.Fatal("cached decision not found")
		}
	})
	if allocs != 0 {
		t.Errorf("key build + lookup allocates %v times, want 0", allocs)
	}
}

// TestChoosePointCopyCachedLookupAllocs: a point read's copy choice that
// hits the decision cache, keyed by the coordinator too, allocates only the
// copy list it ranges over, and counts as a hit.
func TestChoosePointCopyCachedLookupAllocs(t *testing.T) {
	pl, dir := testPlanner()
	m := register(dir, 1, 0, 100, 0, 3, 0, storage.DefaultRowLayout(), 100)
	m.AddReplica(metadata.Replica{Site: 1, Layout: storage.DefaultColumnLayout()})
	first := pl.choosePointCopy(m, 2, 1)
	h0, m0 := pl.Decisions.Stats()
	allocs := testing.AllocsPerRun(100, func() {
		if got := pl.choosePointCopy(m, 2, 1); got != first {
			t.Fatalf("cached choice %v, first %v", got, first)
		}
	})
	if allocs > 1 {
		t.Errorf("cached choosePointCopy allocates %v times, want <= 1 (the copy list)", allocs)
	}
	if h1, m1 := pl.Decisions.Stats(); h1 <= h0 || m1 != m0 {
		t.Errorf("hits %d -> %d, misses %d -> %d: lookups did not hit", h0, h1, m0, m1)
	}
}

func TestOutputWidth(t *testing.T) {
	ps := &PScan{Cols: []schema.ColID{0, 1}}
	if OutputWidth(ps) != 2 {
		t.Error("scan width")
	}
	pj := &PJoin{Left: ps, Right: ps}
	if OutputWidth(pj) != 4 {
		t.Error("join width")
	}
	pa := &PAgg{Child: pj, GroupBy: []int{0}, Aggs: []exec.AggSpec{{}}}
	if OutputWidth(pa) != 2 {
		t.Error("agg width")
	}
}
