package cluster

// Tests for the pipelined join's distributed half: what crosses the
// modelled network, what happens when the pipeline is cancelled, abandoned
// or loses a site mid-flight, and how a mis-estimated build side is caught.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/cost"
	"proteus/internal/exec"
	"proteus/internal/faults"
	"proteus/internal/plan"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// addLocalGroups creates the groups dimension unreplicated and returns it
// with the site that holds it.
func addLocalGroups(t *testing.T, e *Engine, ngroups int64) (*schema.Table, simnet.SiteID) {
	t.Helper()
	dim := createGroups(t, e, ngroups, func(*TableSpec) {})
	return dim, e.Dir.TablePartitions(dim.ID)[0].Master().Site
}

// TestJoinAggNetworkAccounting counts the modelled network for one
// two-site join-aggregate. The dimension's site coordinates (it holds the
// most scanned pieces), so exactly three messages cross: the ASA's
// dispatch, the join table to the one remote probing site, and that site's
// partial aggregate back. The bytes are the table's wire size plus the
// partial relation — far fewer than the remote half of the probe side,
// which is what a coordinator join ships. On one site nothing crosses.
func TestJoinAggNetworkAccounting(t *testing.T) {
	const rows, ngroups = 2000, 10
	// The maintenance tick drains site observations into the cost model; an
	// hour-long interval keeps it from taking the join's before the test does.
	quiet := func(c *Config) { c.MaintainInterval = time.Hour }
	e, fact := newMorselEngine(t, ModeColumnStore, 2, 4, rows, quiet)
	dim, coord := addLocalGroups(t, e, ngroups)
	remote := simnet.SiteID(1 - int(coord))
	q := factDimJoinAgg(fact, dim) // GROUP BY tag: COUNT, SUM(val), AVG(weight)

	// What the test expects to cross, computed independently: the table
	// over the build columns the query needs (gid, weight, tag) ...
	build := exec.NewColRel([]string{"gid", "weight", "tag"})
	for g := int64(0); g < ngroups; g++ {
		build.Vecs[0].Append(types.NewInt64(g))
		build.Vecs[1].Append(types.NewFloat64(float64(g) * 10))
		build.Vecs[2].Append(types.NewString([]string{"even", "odd"}[g%2]))
	}
	build.SetRows(ngroups)
	tableBytes := exec.BuildJoinTable(&build, 0).Bytes()
	// ... and the remote site's partial: its fact rows joined and grouped
	// by tag into [tag, COUNT, SUM(val), SUM(weight), COUNT].
	remoteRows := 0
	joined := exec.Rel{}
	for _, m := range e.Dir.TablePartitions(fact.ID) {
		if m.Master().Site != remote {
			continue
		}
		for i := int64(m.Bounds.RowStart); i < int64(m.Bounds.RowEnd); i++ {
			remoteRows++
			g := i % 10
			joined.Tuples = append(joined.Tuples, []types.Value{
				types.NewString([]string{"even", "odd"}[g%2]), types.NewFloat64(float64(i)), types.NewFloat64(float64(g) * 10)})
		}
	}
	if remoteRows != rows/2 {
		t.Fatalf("fixture: %d fact rows on the remote site, want %d", remoteRows, rows/2)
	}
	partial := refAggregate(joined, []int{0}, []exec.AggSpec{
		{Func: exec.AggCount}, {Func: exec.AggSum, Col: 1}, {Func: exec.AggSum, Col: 2}, {Func: exec.AggCount}})
	partialBytes := int64(partial.NumRows()*partial.RowBytes() + 64)

	out0, back0 := e.Net.Stats(coord, remote), e.Net.Stats(remote, coord)
	msgs0, bytes0 := e.Net.TotalMessages(), e.Net.TotalBytes()
	js0 := exec.ReadJoinStats()
	runSorted(t, e, q)
	out, back := e.Net.Stats(coord, remote), e.Net.Stats(remote, coord)
	js := exec.ReadJoinStats()

	if m, b := out.Messages-out0.Messages, out.Bytes-out0.Bytes; m != 1 || b != tableBytes {
		t.Errorf("coordinator -> probing site: %d messages, %d bytes; want the table once, %d bytes", m, b, tableBytes)
	}
	if m, b := back.Messages-back0.Messages, back.Bytes-back0.Bytes; m != 1 || b != partialBytes {
		t.Errorf("probing site -> coordinator: %d messages, %d bytes; want one partial, %d bytes", m, b, partialBytes)
	}
	if m, b := e.Net.TotalMessages()-msgs0, e.Net.TotalBytes()-bytes0; m != 3 || b != 256+tableBytes+partialBytes {
		t.Errorf("query total: %d messages, %d bytes; want 3 and %d", m, b, 256+tableBytes+partialBytes)
	}
	if d := js.BroadcastBytes - js0.BroadcastBytes; d != tableBytes {
		t.Errorf("exec.join.broadcast_bytes moved by %d, want %d", d, tableBytes)
	}
	if probeSide := int64(remoteRows * 16); tableBytes+partialBytes >= probeSide {
		t.Errorf("pipelined join shipped %d bytes, no fewer than the %d of the remote probe rows", tableBytes+partialBytes, probeSide)
	}

	// Both probing sites report the join to the cost model.
	for _, s := range e.Sites {
		found := false
		for _, o := range s.DrainObservations() {
			if o.Op == cost.OpJoin && o.Variant == cost.JoinHashBatch {
				found = true
				if o.Features[0] != ngroups || o.Features[1] != rows/2 || o.Features[2] != rows/2 {
					t.Errorf("site %d join observation features %v, want build %d, probe and out %d", s.ID, o.Features, ngroups, rows/2)
				}
			}
		}
		if !found {
			t.Errorf("site %d probed but observed no batch hash join", s.ID)
		}
	}

	// A single site is its own coordinator: only the dispatch is a message.
	one, fact1 := newMorselEngine(t, ModeColumnStore, 1, 4, rows, quiet)
	dim1, _ := addLocalGroups(t, one, ngroups)
	msgs0 = one.Net.TotalMessages()
	runSorted(t, one, factDimJoinAgg(fact1, dim1))
	if m := one.Net.TotalMessages() - msgs0; m != 1 {
		t.Errorf("single-site join sent %d messages, want only the dispatch", m)
	}
}

// waitGoroutines waits for the goroutine count to settle back to baseline.
func waitGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s leaked goroutines: %d > baseline %d\n%s",
				what, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJoinPipeCancelAndAbandonLeakNothing abandons streamed bare joins
// after a few rows and cancels join-aggregates at assorted points of their
// probe phase: cursors must close cleanly, cancelled queries must return an
// error or the complete answer, and in both cases every feeder and worker
// must exit and every pooled batch must come back.
func TestJoinPipeCancelAndAbandonLeakNothing(t *testing.T) {
	e, fact := newMorselEngine(t, ModeColumnStore, 2, 4, 20000, func(c *Config) {
		c.MorselRows = 32
		c.ScanBatchRows = 64
	})
	dim := addGroupsTable(t, e, 10)
	sess := e.NewSession()
	want := runSorted(t, e, factDimJoinAgg(fact, dim))

	baseline := runtime.NumGoroutine()
	balance := storage.BatchPoolBalance()
	pipelined := exec.ReadJoinStats().Pipelined
	for i := 0; i < 8; i++ {
		cur, err := e.ExecuteQueryStream(context.Background(), sess, factDimJoin(fact, dim))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			if !cur.Next() {
				t.Fatalf("stream %d ended after %d rows: %v", i, k, cur.Err())
			}
			if row := cur.Row(); len(row) != 5 || types.Compare(row[0], row[2]) != 0 {
				t.Fatalf("streamed join row %v: want 5 columns with grp = gid", row)
			}
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	if exec.ReadJoinStats().Pipelined == pipelined {
		t.Fatal("streamed joins were not pipelined")
	}
	waitGoroutines(t, baseline, "abandoned join streams")

	for i := 0; i < 12; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i)*300*time.Microsecond)
		got, err := e.ExecuteQuery(ctx, sess, factDimJoinAgg(fact, dim))
		cancel()
		if err == nil {
			sortTuples(got)
			sameRels(t, "join-agg that beat its cancellation", got, want)
		}
	}
	waitGoroutines(t, baseline, "cancelled join-aggregates")
	if bal := storage.BatchPoolBalance(); bal != balance {
		t.Errorf("pooled batches not returned: balance %d, was %d", bal, balance)
	}
}

// crashOnSend is a fault policy that crashes a site the moment a chosen
// message is about to be sent, then defers to the engine's own registry.
type crashOnSend struct {
	*faults.Registry
	armed atomic.Bool
	match func(from, to simnet.SiteID, bytes int) bool
	crash func()
}

func (c *crashOnSend) Intercept(from, to simnet.SiteID, bytes int) (time.Duration, error) {
	if c.match(from, to, bytes) && c.armed.CompareAndSwap(true, false) {
		c.crash()
	}
	return c.Registry.Intercept(from, to, bytes)
}

// TestJoinPipeSiteCrashAfterBroadcast kills a remote probing site exactly
// between the table broadcast and the probe: the broadcast is the first
// coordinator -> site message of a join, and the policy crashes the site
// as it is sent. Its workers' share then runs on the coordinator fallback,
// but its partial cannot leave a dead site, so the attempt fails as a whole
// and is retried. Without replicas the site's half of the fact table is
// gone and the query must end in the typed fault error; with replicas at
// the coordinator the retry re-plans around the dead site and must return
// the complete answer. A partial answer is never acceptable.
func TestJoinPipeSiteCrashAfterBroadcast(t *testing.T) {
	const coord, remote = simnet.SiteID(1), simnet.SiteID(2)
	for run := 0; run < 4; run++ {
		// A fresh cluster per case: a failover moves masters for good.
		replicated, bare := run/2 == 1, run%2 == 1
		cfg := fastConfig(ModeColumnStore, 3)
		cfg.RetryBase = 100 * time.Microsecond
		if !replicated {
			cfg.OpDeadline = 300 * time.Millisecond // the retries cannot succeed: fail fast
		}
		e := New(cfg)
		t.Cleanup(e.Close)
		// Fact partitions alternate between sites 1 and 2 and the dimension
		// lives at site 1, which therefore coordinates; site 0 is idle.
		fact, err := e.CreateTable(TableSpec{Name: "items", Cols: testCols, MaxRows: 2000, Partitions: 4,
			PlaceAt: func(part int) simnet.SiteID { return simnet.SiteID(1 + part%2) }})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.LoadRows(context.Background(), fact.ID, testRows(2000)); err != nil {
			t.Fatal(err)
		}
		dim := createGroups(t, e, 10, func(s *TableSpec) {
			s.PlaceAt = func(int) simnet.SiteID { return coord }
		})
		if replicated {
			for _, m := range e.Dir.TablePartitions(fact.ID) {
				if m.Master().Site == remote {
					if err := e.AddReplicaOp(m.ID, coord, storage.DefaultColumnLayout()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		shape := factDimJoinAgg(fact, dim)
		if bare {
			shape = factDimJoin(fact, dim)
		}
		want := runSorted(t, e, shape)
		policy := &crashOnSend{
			Registry: e.Faults,
			match:    func(from, to simnet.SiteID, _ int) bool { return from == coord && to == remote },
			crash: func() {
				if err := e.CrashSite(remote); err != nil {
					t.Error(err)
				}
			},
		}
		e.Net.SetFaults(policy)
		policy.armed.Store(true)
		got, err := e.ExecuteQuery(context.Background(), e.NewSession(), shape)
		e.Net.SetFaults(e.Faults)
		if policy.armed.Load() {
			t.Fatalf("replicated=%v bare=%v: no table was broadcast to the remote site: the crash never fired", replicated, bare)
		}
		switch {
		case err == nil:
			sortTuples(got)
			sameRels(t, "join across a crash after the broadcast", got, want)
			if !replicated {
				t.Error("query succeeded although the crashed site held the only copy of half the fact table")
			}
		case errors.Is(err, faults.ErrTimeout) || errors.Is(err, faults.ErrSiteDown):
			if replicated {
				t.Errorf("bare=%v: query failed with %v although every partition has a live copy", bare, err)
			}
		default:
			t.Errorf("replicated=%v bare=%v: crash after broadcast surfaced an untyped error: %v", replicated, bare, err)
		}
	}
}

// TestJoinPipeSwapsMisestimatedBuildSide joins a large fact scan whose
// predicate the planner badly underestimates — val >= 0 over a column with
// one huge negative sentinel per partition looks like a sliver of a
// uniform range — with a small dimension. The estimate makes the fact side
// the build side; the executor must notice, after at most a dimension's
// worth of rows, that it cannot be the smaller one, swap the roles, and
// still answer correctly, building on the ten dimension rows and shipping
// next to nothing.
func TestJoinPipeSwapsMisestimatedBuildSide(t *testing.T) {
	const rows, parts = 40000, 4
	e := New(fastConfig(ModeColumnStore, 2))
	t.Cleanup(e.Close)
	fact, err := e.CreateTable(TableSpec{Name: "items", Cols: testCols, MaxRows: rows, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	data := testRows(rows)
	for p := 0; p < parts; p++ {
		data[p*rows/parts].Vals[2] = types.NewFloat64(-1e15)
	}
	if err := e.LoadRows(context.Background(), fact.ID, data); err != nil {
		t.Fatal(err)
	}
	dim, coord := addLocalGroups(t, e, 10)
	q := &query.Query{Root: &query.AggNode{
		Child: &query.JoinNode{
			Left: &query.ScanNode{Table: fact.ID, Cols: []schema.ColID{1, 2},
				Pred: storage.Pred{{Col: 2, Op: storage.CmpGe, Val: types.NewFloat64(0)}}},
			Right:      &query.ScanNode{Table: dim.ID, Cols: []schema.ColID{0, 1}},
			LeftKeyCol: 0, RightKeyCol: 0,
		},
		Aggs: []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggSum, Col: 3}},
	}}
	pn, err := e.Planner.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	pj := pn.(*plan.PAgg).Child.(*plan.PJoin)
	if l, r := nodeEstRows(pj.Left), nodeEstRows(pj.Right); l >= r {
		t.Fatalf("fixture: the planner estimates fact %d >= dimension %d rows; the sentinels no longer fool it", l, r)
	}

	// What the swapped run alone ships, computed independently: the
	// dispatch, the table over the ten dimension rows (gid, weight) to the
	// remote probing site, and that site's one-row partial [COUNT, SUM].
	build := exec.NewColRel([]string{"gid", "weight"})
	for g := int64(0); g < 10; g++ {
		build.Vecs[0].Append(types.NewInt64(g))
		build.Vecs[1].Append(types.NewFloat64(float64(g) * 10))
	}
	build.SetRows(10)
	tableBytes := exec.BuildJoinTable(&build, 0).Bytes()
	partial := exec.Rel{Tuples: [][]types.Value{{types.NewInt64(0), types.NewFloat64(0)}}}
	swapped := 256 + tableBytes + int64(partial.RowBytes()+64)
	remote := simnet.SiteID(1 - int(coord))

	before := exec.ReadJoinStats()
	msgs0, bytes0 := e.Net.TotalMessages(), e.Net.TotalBytes()
	back0 := e.Net.Stats(remote, coord)
	got := runSorted(t, e, q)
	d := exec.ReadJoinStats()
	// The sentinel rows fail the predicate; every other row joins one group.
	var weight float64
	for i := 0; i < rows; i++ {
		if i%(rows/parts) != 0 {
			weight += float64(i%10) * 10
		}
	}
	want := exec.Rel{Tuples: [][]types.Value{{types.NewInt64(rows - parts), types.NewFloat64(weight)}}}
	sameRels(t, "swapped join", got, want)
	if built := d.BuildRows - before.BuildRows; built != 10 {
		t.Errorf("join built on %d rows, want the 10 dimension rows", built)
	}
	if probed := d.ProbeRows - before.ProbeRows; probed != rows-parts {
		t.Errorf("join probed %d rows, want the %d fact rows that pass the predicate", probed, rows-parts)
	}
	// The remote half of the fact side is 320 KB. The abandoned build scan
	// tripped its cap before the remote site's share was complete, so it
	// shipped nothing: the query shipped what the swapped run alone does.
	if m, b := e.Net.TotalMessages()-msgs0, e.Net.TotalBytes()-bytes0; m != 3 || b != swapped {
		t.Errorf("query shipped %d messages, %d bytes; want the swapped run's 3 and %d", m, b, swapped)
	}
	if back := e.Net.Stats(remote, coord); back.Messages-back0.Messages != 1 {
		t.Errorf("remote site sent %d messages, want its one partial", back.Messages-back0.Messages)
	}
}

// TestJoinPipeLimitPushdown checks a LIMIT over a bare join stops the
// pipelined scan early and returns exactly that many joined rows.
func TestJoinPipeLimitPushdown(t *testing.T) {
	e, fact := newMorselEngine(t, ModeColumnStore, 2, 8, 40000, func(c *Config) {
		c.MorselRows = 64
	})
	dim := addGroupsTable(t, e, 10)
	q := factDimJoin(fact, dim)
	q.Limit = 25
	scheduled := e.MetricsSnapshot().Counters["exec.morsels.scheduled"]
	res, err := e.ExecuteQuery(context.Background(), e.NewSession(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 25 {
		t.Fatalf("limited join returned %d rows, want 25", len(res.Tuples))
	}
	for _, row := range res.Tuples {
		if len(row) != 5 || types.Compare(row[0], row[2]) != 0 {
			t.Fatalf("joined row %v: want 5 columns with grp = gid", row)
		}
	}
	if delta, total := e.MetricsSnapshot().Counters["exec.morsels.scheduled"]-scheduled, int64(40000/64); delta >= total {
		t.Errorf("scheduled %d of %d probe morsels: the limit did not stop the feed", delta, total)
	}
}
