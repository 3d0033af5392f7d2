package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/exec"
	"proteus/internal/faults"
	"proteus/internal/partition"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// kindCounts reads the per-kind message counters.
func kindCounts(e *Engine) [simnet.NumKinds]int64 {
	var n [simnet.NumKinds]int64
	for k := simnet.Kind(0); k < simnet.NumKinds; k++ {
		n[k] = e.Obs.Counter("net.messages." + k.String()).Value()
	}
	return n
}

// newSitedEngine builds a row-store engine whose table "items" has one
// partition of rowsPer rows per site, partition i mastered at site i, with
// replication and maintenance slowed to an hour so that only the
// operations under test send messages.
func newSitedEngine(t testing.TB, sites int, rowsPer int64, tune func(*Config)) (*Engine, *schema.Table) {
	t.Helper()
	cfg := fastConfig(ModeRowStore, sites)
	cfg.ReplicationInterval = time.Hour
	cfg.MaintainInterval = time.Hour
	if tune != nil {
		tune(&cfg)
	}
	e := New(cfg)
	t.Cleanup(e.Close)
	tbl, err := e.CreateTable(TableSpec{Name: "items", Cols: testCols, MaxRows: schema.RowID(rowsPer * int64(sites)),
		Partitions: sites, PlaceAt: func(p int) simnet.SiteID { return simnet.SiteID(p) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadRows(context.Background(), tbl.ID, testRows(rowsPer*int64(sites))); err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

// expectKinds runs op and requires the messages it sent to be exactly want,
// by kind, and to sum to the network's total.
func expectKinds(t *testing.T, e *Engine, name string, want map[simnet.Kind]int64, op func()) {
	t.Helper()
	before, total := kindCounts(e), e.Net.TotalMessages()
	op()
	after := kindCounts(e)
	var sum int64
	for k := simnet.Kind(0); k < simnet.NumKinds; k++ {
		if got := after[k] - before[k]; got != want[k] {
			t.Errorf("%s: %d %s messages, want %d", name, got, k, want[k])
		}
		sum += after[k] - before[k]
	}
	if got := e.Net.TotalMessages() - total; got != sum {
		t.Errorf("%s: %d messages in all, %d by kind", name, got, sum)
	}
}

// copyVersion is the installed version of pid's copy at a site.
func copyVersion(t *testing.T, e *Engine, pid partition.ID, site simnet.SiteID) uint64 {
	t.Helper()
	p, ok := e.siteOf(site).Partition(pid)
	if !ok {
		t.Fatalf("no copy of partition %d at site %d", pid, site)
	}
	return p.Version()
}

// TestTxnMessageBudget holds each transaction shape to its exact message
// count, by kind: one dispatch, then one message pair per remote site — a
// read round trip for a site only read, the prepare (carrying the site's
// reads) and the batched decision for a site written. Partitions 0 and 1
// have lagging row replicas at each other's site, so a read of a written
// partition routed to a replica would show as a catch-up: replication
// messages and a replica version that moves. Partition 2 has an idle row
// replica at site 1, which a transaction coordinated there reads for free.
func TestTxnMessageBudget(t *testing.T) {
	e, tbl := newSitedEngine(t, 3, 100, nil)
	parts := e.Dir.TablePartitions(tbl.ID)
	for i, m := range parts[:2] {
		if err := e.AddReplicaOp(m.ID, simnet.SiteID(1-i), storage.DefaultRowLayout()); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddReplicaOp(parts[2].ID, 1, storage.DefaultRowLayout()); err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession()
	ctx := context.Background()
	for _, row := range []int64{10, 110} { // the replicas fall behind
		if _, err := e.ExecuteTxn(ctx, sess, &query.Txn{Ops: []query.Op{updateOp(tbl, row, 2, types.NewFloat64(-1))}}); err != nil {
			t.Fatal(err)
		}
	}
	rep0, rep1 := copyVersion(t, e, parts[0].ID, 1), copyVersion(t, e, parts[1].ID, 0)
	if rep0 >= copyVersion(t, e, parts[0].ID, 0) || rep1 >= copyVersion(t, e, parts[1].ID, 1) {
		t.Fatal("replicas are not behind their masters")
	}

	const (
		dispatch = simnet.KindDispatch
		read     = simnet.KindRead
		prepare  = simnet.KindPrepare
		decision = simnet.KindDecision
	)
	upd := func(row int64) query.Op { return updateOp(tbl, row, 2, types.NewFloat64(float64(-row))) }
	for _, tc := range []struct {
		name  string
		ops   []query.Op
		want  map[simnet.Kind]int64
		reads []float64 // the values the read ops return
	}{
		{"single-site write", []query.Op{upd(5)}, map[simnet.Kind]int64{dispatch: 1}, nil},
		{"two-site read-modify-write", []query.Op{readOp(tbl, 20, 2), upd(20), readOp(tbl, 120, 2), upd(120)},
			map[simnet.Kind]int64{dispatch: 1, prepare: 2, decision: 2}, []float64{20, 120}},
		{"two-site read-only", []query.Op{readOp(tbl, 30, 2), readOp(tbl, 230, 2)},
			map[simnet.Kind]int64{dispatch: 1, read: 2}, []float64{30, 230}},
		{"two sites written, a third only read", []query.Op{upd(40), readOp(tbl, 45, 2), readOp(tbl, 140, 2), upd(140), readOp(tbl, 240, 2)},
			map[simnet.Kind]int64{dispatch: 1, read: 2, prepare: 2, decision: 2}, []float64{45, 140, 240}},
		{"write at site 1, unwritten read of its idle copy there", []query.Op{upd(150), readOp(tbl, 250, 2)},
			map[simnet.Kind]int64{dispatch: 1}, []float64{250}},
	} {
		toSite2 := e.Net.Stats(0, 2).Messages + e.Net.Stats(2, 0).Messages
		var res exec.Rel
		var err error
		expectKinds(t, e, tc.name, tc.want, func() { res, err = e.ExecuteTxn(ctx, sess, &query.Txn{Ops: tc.ops}) })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Tuples) != len(tc.reads) {
			t.Fatalf("%s: %d tuples, want %d", tc.name, len(res.Tuples), len(tc.reads))
		}
		for i, v := range tc.reads {
			if got := res.Tuples[i][0].Float(); got != v {
				t.Errorf("%s: read %d = %v, want %v", tc.name, i, got, v)
			}
		}
		if tc.want[read] > 0 && tc.want[decision] > 0 {
			// The read-only site sees its read round trip and nothing else.
			if got := e.Net.Stats(0, 2).Messages + e.Net.Stats(2, 0).Messages - toSite2; got != 2 {
				t.Errorf("%s: %d messages to and from the read-only site, want 2", tc.name, got)
			}
		}
	}
	// No read caught a replica up: the replicas stand where they stood.
	if copyVersion(t, e, parts[0].ID, 1) != rep0 || copyVersion(t, e, parts[1].ID, 0) != rep1 {
		t.Error("a replica caught up: a read of a written partition went to a replica")
	}
	res, err := e.ExecuteTxn(ctx, sess, &query.Txn{Ops: []query.Op{readOp(tbl, 20, 2), readOp(tbl, 140, 2)}})
	if err != nil || res.Tuples[0][0].Float() != -20 || res.Tuples[1][0].Float() != -140 {
		t.Fatalf("writes read back as %v (%v), want -20 and -140", res.Tuples, err)
	}
}

// TestReplicationMessageBudget holds a replica site's poll to one message
// from the log broker however many of its partitions have new records: a
// transaction writes four partitions mastered at site 0 whose column
// replicas sit at site 1, and one poll at site 1 receives all four records
// in a single replication message and brings every replica up to its
// master.
func TestReplicationMessageBudget(t *testing.T) {
	const parts = 4
	cfg := fastConfig(ModeRowStore, 2)
	cfg.ReplicationInterval, cfg.MaintainInterval = time.Hour, time.Hour
	e := New(cfg)
	t.Cleanup(e.Close)
	tbl, err := e.CreateTable(TableSpec{Name: "items", Cols: testCols, MaxRows: 100 * parts, Partitions: parts,
		PlaceAt: func(int) simnet.SiteID { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := e.LoadRows(ctx, tbl.ID, testRows(100*parts)); err != nil {
		t.Fatal(err)
	}
	ms := e.Dir.TablePartitions(tbl.ID)
	for _, m := range ms {
		if err := e.AddReplicaOp(m.ID, 1, storage.DefaultColumnLayout()); err != nil {
			t.Fatal(err)
		}
	}
	txn := &query.Txn{}
	for p := int64(0); p < parts; p++ {
		txn.Ops = append(txn.Ops, updateOp(tbl, 100*p+7, 2, types.NewFloat64(-1)))
	}
	expectKinds(t, e, "four-partition write", map[simnet.Kind]int64{simnet.KindDispatch: 1}, func() {
		if _, err := e.ExecuteTxn(ctx, e.NewSession(), txn); err != nil {
			t.Fatal(err)
		}
	})
	for _, m := range ms {
		if copyVersion(t, e, m.ID, 1) >= copyVersion(t, e, m.ID, 0) {
			t.Fatalf("partition %d: the replica is not behind its master", m.ID)
		}
	}
	var applied int
	expectKinds(t, e, "replica poll", map[simnet.Kind]int64{simnet.KindReplication: 1}, func() {
		if applied, err = e.siteOf(1).Repl.PollOnce(); err != nil {
			t.Fatal(err)
		}
	})
	if applied != parts {
		t.Errorf("the poll applied %d records, want %d", applied, parts)
	}
	for _, m := range ms {
		if rep, master := copyVersion(t, e, m.ID, 1), copyVersion(t, e, m.ID, 0); rep != master {
			t.Errorf("partition %d: replica at version %d, master at %d", m.ID, rep, master)
		}
	}
}

// TestNetKindsPartitionTotals runs every kind of traffic — transactions,
// scans, a join, a layout change, background replication — and checks the
// per-kind counters sum exactly to the totals, with nothing untagged.
func TestNetKindsPartitionTotals(t *testing.T) {
	e, tbl := newMorselEngine(t, ModeJanus, 3, 3, 300, nil) // partition i at site i, its replica at i+1
	dim := createGroups(t, e, 10, func(s *TableSpec) { s.PlaceAt = func(int) simnet.SiteID { return 0 } })
	sess := e.NewSession()
	ctx := context.Background()
	for i := int64(0); i < 20; i++ {
		for _, ops := range [][]query.Op{
			{readOp(tbl, i, 2), updateOp(tbl, i, 2, types.NewFloat64(1)), readOp(tbl, 150+i, 2), updateOp(tbl, 150+i, 2, types.NewFloat64(1))},
			{readOp(tbl, i, 2), readOp(tbl, 150+i, 2)},
		} {
			if _, err := e.ExecuteTxn(ctx, sess, &query.Txn{Ops: ops}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, q := range []*query.Query{scanSumQuery(tbl), factDimJoinAgg(tbl, dim)} {
		if _, err := e.ExecuteQuery(ctx, sess, q); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Dir.TablePartitions(tbl.ID)[0]
	if err := e.ChangeCopyLayout(m.ID, m.Master().Site, storage.DefaultColumnLayout()); err != nil {
		t.Fatal(err)
	}
	waitAllConverged(t, e, e.clk, 2*time.Second)

	snap := e.MetricsSnapshot()
	var msgs, bytes int64
	for k := simnet.Kind(0); k < simnet.NumKinds; k++ {
		n := snap.Counters["net.messages."+k.String()]
		msgs += n
		bytes += snap.Counters["net.bytes."+k.String()]
		if (n == 0) != (k == simnet.KindOther) {
			t.Errorf("%d %s messages", n, k)
		}
	}
	if msgs != snap.Counters["net.messages"] || bytes != snap.Counters["net.bytes"] {
		t.Errorf("kinds sum to %d messages, %d bytes; totals %d, %d", msgs, bytes, snap.Counters["net.messages"], snap.Counters["net.bytes"])
	}
	if msgs != e.Net.TotalMessages() || bytes != e.Net.TotalBytes() {
		t.Errorf("kinds sum to %d messages, %d bytes; links %d, %d", msgs, bytes, e.Net.TotalMessages(), e.Net.TotalBytes())
	}
}

// rmwFixture is a two-site read-modify-write over rows 5 (site 0, the
// coordinator) and 105 (site 1): the prepare to site 1 carries the read of
// row 105.
func rmwFixture(tbl *schema.Table, v float64) *query.Txn {
	return &query.Txn{Ops: []query.Op{
		readOp(tbl, 5, 2), updateOp(tbl, 5, 2, types.NewFloat64(v)),
		readOp(tbl, 105, 2), updateOp(tbl, 105, 2, types.NewFloat64(v)),
	}}
}

// offsets is the redo-log end offset of each partition of tbl.
func offsets(e *Engine, tbl *schema.Table) []int64 {
	var out []int64
	for _, m := range e.Dir.TablePartitions(tbl.ID) {
		out = append(out, e.Broker.EndOffset(m.ID))
	}
	return out
}

// checkRMW runs a read-back and requires both rows at v and each partition
// to have logged exactly one record since before.
func checkRMW(t *testing.T, e *Engine, tbl *schema.Table, before []int64, v float64) {
	t.Helper()
	for i, off := range offsets(e, tbl) {
		if off != before[i]+1 {
			t.Errorf("partition %d logged %d records, want 1", i, off-before[i])
		}
	}
	res, err := e.ExecuteTxn(context.Background(), e.NewSession(), &query.Txn{Ops: []query.Op{readOp(tbl, 5, 2), readOp(tbl, 105, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := res.Tuples[0][0].Float(), res.Tuples[1][0].Float(); a != v || b != v {
		t.Errorf("rows read back %v and %v, want %v", a, b, v)
	}
}

// TestMergedPrepareLinkDrops drops the merged reads + prepare on the link to
// the remote write site. Dropped messages are retried on the link (the
// request three times, then the reply once), and the transaction commits
// once. A link that stays down surfaces the typed timeout before the
// commit point: nothing is logged or installed, and the transaction
// succeeds once the link heals.
func TestMergedPrepareLinkDrops(t *testing.T) {
	e, tbl := newSitedEngine(t, 2, 100, func(c *Config) { c.OpDeadline = 200 * time.Millisecond })
	ctx := context.Background()
	const prepareBytes = 128 + 64 // the prepare header and one read
	var dropped atomic.Int64
	policy := &dropPolicy{Registry: e.Faults, drop: func(from, to simnet.SiteID, bytes int) bool {
		n := dropped.Load()
		hit := (from == 0 && to == 1 && bytes == prepareBytes && n < 3) ||
			(from == 1 && to == 0 && bytes == 32+64+32 && n == 3) // the vote and one value, once
		if hit {
			dropped.Add(1)
		}
		return hit
	}}
	e.Net.SetFaults(policy)
	before := offsets(e, tbl)
	res, err := e.ExecuteTxn(ctx, e.NewSession(), rmwFixture(tbl, -1))
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Load() != 4 {
		t.Fatalf("%d messages dropped, want 4", dropped.Load())
	}
	if res.Tuples[0][0].Float() != 5 || res.Tuples[1][0].Float() != 105 {
		t.Errorf("reads returned %v, want 5 and 105", res.Tuples)
	}
	e.Net.SetFaults(e.Faults)
	checkRMW(t, e, tbl, before, -1)

	// The link stays down: the prepare's retries run out before the commit
	// point.
	e.Faults.SetLink(0, 1, faults.LinkFault{Drop: 1})
	before = offsets(e, tbl)
	if _, err := e.ExecuteTxn(ctx, e.NewSession(), rmwFixture(tbl, -2)); !errors.Is(err, faults.ErrTimeout) {
		t.Fatalf("prepare over a dead link: err = %v, want ErrTimeout", err)
	}
	e.Faults.ClearLinks()
	for i, off := range offsets(e, tbl) {
		if off != before[i] {
			t.Errorf("partition %d logged %d records from the failed attempt", i, off-before[i])
		}
	}
	if _, err := e.ExecuteTxn(ctx, e.NewSession(), rmwFixture(tbl, -2)); err != nil {
		t.Fatal(err)
	}
	checkRMW(t, e, tbl, before, -2)
}

// dropPolicy drops the messages drop selects with the typed ErrDropped and
// defers everything else to the engine's registry.
type dropPolicy struct {
	*faults.Registry
	drop func(from, to simnet.SiteID, bytes int) bool
}

func (p *dropPolicy) Intercept(from, to simnet.SiteID, bytes int) (time.Duration, error) {
	if p.drop(from, to, bytes) {
		return 0, faults.ErrDropped
	}
	return p.Registry.Intercept(from, to, bytes)
}

// TestMergedPrepareSiteCrash crashes the remote write site the moment the
// merged reads + prepare leave for it. The attempt aborts with the typed
// site-down error before the commit point and retries; failover promotes
// the coordinator's replica of the site's partition, and the retry commits
// there. Exactly one record per partition is logged, and the reads and
// writes read back.
func TestMergedPrepareSiteCrash(t *testing.T) {
	e, tbl := newSitedEngine(t, 2, 100, func(c *Config) { c.OpDeadline = 2 * time.Second })
	remote := e.Dir.TablePartitions(tbl.ID)[1]
	if err := e.AddReplicaOp(remote.ID, 0, storage.DefaultRowLayout()); err != nil {
		t.Fatal(err)
	}
	crashed := make(chan error, 1)
	policy := &crashOnSend{
		Registry: e.Faults,
		match:    func(from, to simnet.SiteID, bytes int) bool { return from == 0 && to == 1 && bytes == 128+64 },
		crash: func() {
			// The sender holds the transaction's partition locks, which
			// failover needs: mark the site down now, crash it beside.
			e.Faults.SetSiteDown(1, true)
			go func() { crashed <- e.CrashSite(1) }()
		},
	}
	policy.armed.Store(true)
	e.Net.SetFaults(policy)
	retries := e.Obs.Counter("faults.retries").Value()
	before := offsets(e, tbl)
	res, err := e.ExecuteTxn(context.Background(), e.NewSession(), rmwFixture(tbl, -3))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-crashed; err != nil {
		t.Fatal(err)
	}
	e.Net.SetFaults(e.Faults)
	if policy.armed.Load() {
		t.Fatal("the prepare never left for the remote site")
	}
	if e.Obs.Counter("faults.retries").Value() == retries {
		t.Error("the transaction did not retry")
	}
	if got := remote.Master().Site; got != 0 {
		t.Fatalf("partition %d mastered at site %d after failover, want 0", remote.ID, got)
	}
	if res.Tuples[0][0].Float() != 5 || res.Tuples[1][0].Float() != 105 {
		t.Errorf("reads returned %v, want 5 and 105", res.Tuples)
	}
	checkRMW(t, e, tbl, before, -3)
}

// newSkewedEngine builds a two-site column-store engine whose table "items"
// has four partitions of rows/4 rows, three at site 0 and one at site 1, so
// site 0 coordinates a query over it and one more single-partition table
// at site 1. Replication and maintenance are slowed to an hour so that only
// the queries under test send messages.
func newSkewedEngine(t *testing.T, rows int64) (*Engine, *schema.Table) {
	t.Helper()
	cfg := fastConfig(ModeColumnStore, 2)
	cfg.ReplicationInterval, cfg.MaintainInterval = time.Hour, time.Hour
	e := New(cfg)
	t.Cleanup(e.Close)
	fact, err := e.CreateTable(TableSpec{Name: "items", Cols: testCols, MaxRows: schema.RowID(rows), Partitions: 4,
		PlaceAt: func(p int) simnet.SiteID { return simnet.SiteID(p / 3) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadRows(context.Background(), fact.ID, testRows(rows)); err != nil {
		t.Fatal(err)
	}
	return e, fact
}

// atSite names a table and places all of it at one site.
func atSite(site simnet.SiteID, name string) func(*TableSpec) {
	return func(s *TableSpec) { s.Name, s.PlaceAt = name, func(int) simnet.SiteID { return site } }
}

// TestJoinMessageBudget is the query twin of TestTxnMessageBudget: it holds
// each join shape to its exact message count, by kind. On two sites, site 0
// holds three of the fact's four partitions and coordinates; every
// dimension lives at site 1, and every fact partition's key range covers
// every dimension key. So the ASA's dispatch is followed by one message
// carrying every build side's rows from site 1 straight to site 0 — the one
// ordered (build site, probe site) pair with rows to send — and one
// carrying site 1's share of the result back, however many rows each of
// them holds. Where the dimension is partitioned with the fact, or
// replicated at both sites, no build row crosses at all; on three sites,
// only the pairs whose keys can meet exchange rows.
func TestJoinMessageBudget(t *testing.T) {
	const factRows = 48000
	e, fact := newSkewedEngine(t, factRows)
	ctx := context.Background()
	small := createGroups(t, e, 10, atSite(1, "groups"))
	large := createGroups(t, e, 40000, atSite(1, "groups_large")) // still smaller than the fact: it builds
	// Mastered at site 1 and replicated to site 0: each probing site holds
	// a whole copy and builds from it.
	replicated := createGroups(t, e, 10, func(s *TableSpec) {
		atSite(1, "groups_replicated")(s)
		s.ReplicateAll = true
	})
	bands, err := e.CreateTable(TableSpec{Name: "bands", Cols: []schema.Column{
		{Name: "bid", Kind: types.KindInt64}, {Name: "label", Kind: types.KindString, AvgSize: 4},
	}, MaxRows: 16, Partitions: 1, PlaceAt: func(int) simnet.SiteID { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadRows(ctx, bands.ID, bandsRows(8)); err != nil {
		t.Fatal(err)
	}
	chain := &query.Query{Root: &query.AggNode{
		Child: &query.JoinNode{
			Left:       factDimJoin(fact, small).Root,
			Right:      &query.ScanNode{Table: bands.ID, Cols: []schema.ColID{0, 1}},
			LeftKeyCol: 2, RightKeyCol: 0,
		}, // [grp, val, gid, weight, tag, bid, label]: q7's two probe stages
		GroupBy: []int{6},
		Aggs:    []exec.AggSpec{{Func: exec.AggCount}},
	}}
	// The chain's routed message, computed independently: both stages'
	// build rows narrowed to what the probe reads — groups' gid (the first
	// join's key; the second join is keyed on it, so every row routes
	// everywhere) and bands' (bid, label) — under one 64-byte header.
	gids := exec.NewColRel([]string{"gid"})
	for g := int64(0); g < 10; g++ {
		gids.Vecs[0].Append(types.NewInt64(g))
	}
	gids.SetRows(10)
	labels := exec.ColRelFromRel(exec.Rel{Cols: []string{"bid", "label"}, Tuples: rowVals(bandsRows(8))})
	chainRouted := gids.Bytes() + labels.Bytes() + 64

	// A co-partitioned pair: the fact "orders" keyed by id, two partitions
	// per site, and the dimension "shipments" — one row per fourth order,
	// keyed by that order's id — partitioned with it, so each site's
	// shipments can meet only its own orders.
	const orderRows = 16000
	orders, err := e.CreateTable(TableSpec{Name: "orders", Cols: testCols, MaxRows: orderRows, Partitions: 4,
		PlaceAt: func(p int) simnet.SiteID { return simnet.SiteID(p / 2) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadRows(ctx, orders.ID, testRows(orderRows)); err != nil {
		t.Fatal(err)
	}
	shipments, err := e.CreateTable(TableSpec{Name: "shipments", Cols: []schema.Column{
		{Name: "oid", Kind: types.KindInt64}, {Name: "fee", Kind: types.KindFloat64},
	}, MaxRows: orderRows / 4, Partitions: 2, PlaceAt: func(p int) simnet.SiteID { return simnet.SiteID(p) }})
	if err != nil {
		t.Fatal(err)
	}
	var ships []schema.Row
	for i := int64(0); i < orderRows/4; i++ {
		ships = append(ships, schema.Row{ID: schema.RowID(i), Vals: []types.Value{types.NewInt64(4 * i), types.NewFloat64(1)}})
	}
	if err := e.LoadRows(ctx, shipments.ID, ships); err != nil {
		t.Fatal(err)
	}
	coPartitioned := &query.Query{Root: &query.AggNode{
		Child: &query.JoinNode{
			Left:       &query.ScanNode{Table: orders.ID, Cols: []schema.ColID{0, 2}},
			Right:      &query.ScanNode{Table: shipments.ID, Cols: []schema.ColID{0, 1}},
			LeftKeyCol: 0, RightKeyCol: 0,
		},
		Aggs: []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggSum, Col: 3}},
	}}

	const (
		dispatch = simnet.KindDispatch
		join     = simnet.KindJoin
	)
	sess := e.NewSession()
	for _, tc := range []struct {
		name   string
		q      *query.Query
		rows   int // result rows
		want   map[simnet.Kind]int64
		routed int64 // build bytes shipped site to site, -1: not pinned
	}{
		{"join-aggregate, 10 build rows", factDimJoinAgg(fact, small), 2, map[simnet.Kind]int64{dispatch: 1, join: 2}, -1},
		{"join-aggregate, 40 000 build rows", factDimJoinAgg(fact, large), 2, map[simnet.Kind]int64{dispatch: 1, join: 2}, -1},
		{"bare join, gathered columnar", factDimJoin(fact, small), factRows, map[simnet.Kind]int64{dispatch: 1, join: 2}, -1},
		{"two-stage chain, both stages routed everywhere", chain, 2, map[simnet.Kind]int64{dispatch: 1, join: 2}, chainRouted},
		{"co-partitioned, no build row crosses", coPartitioned, 1, map[simnet.Kind]int64{dispatch: 1, join: 1}, 0},
		{"replicated dimension, no build row crosses", factDimJoinAgg(fact, replicated), 2, map[simnet.Kind]int64{dispatch: 1, join: 1}, 0},
	} {
		var res exec.Rel
		var err error
		before := exec.ReadJoinStats().BroadcastBytes
		expectKinds(t, e, tc.name, tc.want, func() { res, err = e.ExecuteQuery(ctx, sess, tc.q) })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Tuples) != tc.rows {
			t.Errorf("%s: %d result rows, want %d", tc.name, len(res.Tuples), tc.rows)
		}
		if d := exec.ReadJoinStats().BroadcastBytes - before; tc.routed >= 0 && d != tc.routed {
			t.Errorf("%s: %d build bytes crossed sites, want %d", tc.name, d, tc.routed)
		}
		if tc.name == "co-partitioned, no build row crosses" && (res.Tuples[0][0].Int() != orderRows/4 || res.Tuples[0][1].Float() != orderRows/4) {
			t.Errorf("%s: %v, want every shipment joined once", tc.name, res.Tuples[0])
		}
	}

	// Three sites, fact partitions on each, and the 30-row groups dimension
	// one partition per site: gid 0-9 at site 0, 10-19 at site 1, 20-29 at
	// site 2. Every fact key is in 0-9, so only site 0's rows route, to the
	// other two probing sites: two of the six pairs send, and the other two
	// sites' partials come back.
	cfg := fastConfig(ModeColumnStore, 3)
	cfg.ReplicationInterval, cfg.MaintainInterval = time.Hour, time.Hour
	three := New(cfg)
	t.Cleanup(three.Close)
	fact3, err := three.CreateTable(TableSpec{Name: "items", Cols: testCols, MaxRows: 6000, Partitions: 6,
		PlaceAt: func(p int) simnet.SiteID { return simnet.SiteID(p % 3) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := three.LoadRows(ctx, fact3.ID, testRows(6000)); err != nil {
		t.Fatal(err)
	}
	dim3 := createGroups(t, three, 30, func(s *TableSpec) {
		s.Partitions, s.PlaceAt = 3, func(p int) simnet.SiteID { return simnet.SiteID(p) }
	})
	sent0 := [3][3]int64{}
	for from := range sent0 {
		for to := range sent0 {
			sent0[from][to] = three.Net.Stats(simnet.SiteID(from), simnet.SiteID(to)).Messages
		}
	}
	var res exec.Rel
	expectKinds(t, three, "three sites", map[simnet.Kind]int64{dispatch: 1, join: 4}, func() {
		res, err = three.ExecuteQuery(ctx, three.NewSession(), factDimJoinAgg(fact3, dim3))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Errorf("three sites: %d result rows, want 2", len(res.Tuples))
	}
	for _, pair := range [][2]simnet.SiteID{{0, 1}, {0, 2}, {1, 2}, {2, 1}} {
		want := int64(0)
		if pair[0] == 0 {
			want = 1 // site 0's gid 0-9
		}
		if got := three.Net.Stats(pair[0], pair[1]).Messages - sent0[pair[0]][pair[1]]; got != want {
			t.Errorf("three sites: site %d -> site %d sent %d messages, want %d", pair[0], pair[1], got, want)
		}
	}
}

// rowVals is the value lists of rows.
func rowVals(rows []schema.Row) [][]types.Value {
	out := make([][]types.Value, len(rows))
	for i, r := range rows {
		out[i] = r.Vals
	}
	return out
}

// installCharge loads newSitedEngine with rowsPer rows per partition,
// commits ten single-row updates to partition 0, mastered at site 0, and
// installs its replica at site 1. It returns the bytes the install was
// charged, in one layout message, and the bytes it carried: the broker's
// checkpoint image plus the redo tail above it.
func installCharge(t *testing.T, rowsPer int64) (charged, carried int64) {
	t.Helper()
	e, tbl := newSitedEngine(t, 2, rowsPer, nil)
	updateRows(t, e, tbl, 10)
	m := e.Dir.TablePartitions(tbl.ID)[0]
	ck, ok := e.Broker.Checkpoint(m.ID)
	if !ok {
		t.Fatal("no checkpoint after the bulk load")
	}
	recs, _ := e.Broker.Poll(m.ID, ck.Offset, 0)
	if len(recs) != 10 {
		t.Fatalf("%d records above the checkpoint, want 10", len(recs))
	}
	carried = ck.Bytes()
	for i := range recs {
		carried += int64(recs[i].Bytes())
	}
	layout := e.Obs.Counter("net.bytes.layout")
	before := layout.Value()
	var err error
	expectKinds(t, e, "install", map[simnet.Kind]int64{simnet.KindLayout: 1}, func() {
		err = e.AddReplicaOp(m.ID, 1, storage.DefaultRowLayout())
	})
	if err != nil {
		t.Fatal(err)
	}
	return layout.Value() - before, carried
}

// updateRows commits one single-row update to each of rows 0 to n-1.
func updateRows(t testing.TB, e *Engine, tbl *schema.Table, n int64) {
	t.Helper()
	sess := e.NewSession()
	for i := int64(0); i < n; i++ {
		if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{updateOp(tbl, i, 2, types.NewFloat64(-1))}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicaInstallCharge holds AddReplicaOp's charge to what the copy
// is built from — the broker's image plus the redo tail — so a partition
// with ten times the rows costs about ten times as much to replicate.
func TestReplicaInstallCharge(t *testing.T) {
	small, smallCarried := installCharge(t, 400)
	large, largeCarried := installCharge(t, 4000)
	if small != smallCarried || large != largeCarried {
		t.Errorf("installs charged %d and %d bytes, want the %d and %d they carried", small, large, smallCarried, largeCarried)
	}
	if r := float64(large) / float64(small); r < 9 || r > 11 {
		t.Errorf("ten times the rows charged %.2f times the bytes (%d vs %d), want about 10", r, large, small)
	}
}
