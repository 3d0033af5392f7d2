package cluster

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"proteus/internal/admission"
	"proteus/internal/faults"
	"proteus/internal/partition"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/txn"
	"proteus/internal/types"
)

// TestAdmissionShedTyped starves a token-bucket engine and checks the
// client-visible shed contract on every public entry point: the error
// matches faults.ErrOverload via errors.Is, carries a *OverloadError
// with a positive RetryAfter, and the per-tenant admission metrics
// surface in MetricsSnapshot.
func TestAdmissionShedTyped(t *testing.T) {
	e, tbl := newMorselEngine(t, ModeRowStore, 2, 2, 100, func(c *Config) {
		c.Admission = admission.Config{
			Policy:   admission.TokenBucket,
			Default:  admission.Limits{Rate: 0.001, Burst: 1}, // the fixture's LoadRows spends the burst
			MaxQueue: 1,
			MaxWait:  time.Millisecond,
		}
	})
	sess := e.NewSession()
	q := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0}}}

	checkShed := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, faults.ErrOverload) {
			t.Fatalf("%s under starvation = %v, want ErrOverload", op, err)
		}
		var oe *faults.OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("%s shed %T is not *faults.OverloadError", op, err)
		}
		if oe.RetryAfter <= 0 {
			t.Fatalf("%s shed RetryAfter = %v, want > 0", op, oe.RetryAfter)
		}
	}

	_, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
		updateOp(tbl, 1, 2, types.NewFloat64(9)),
	}})
	checkShed("ExecuteTxn", err)
	_, err = e.ExecuteQuery(context.Background(), sess, q)
	checkShed("ExecuteQuery", err)
	_, err = e.ExecuteQueryStream(context.Background(), sess, q)
	checkShed("ExecuteQueryStream", err)
	err = e.LoadRows(context.Background(), tbl.ID, testRows(1))
	checkShed("LoadRows", err)

	// A tagged tenant gets its own bucket — and its own shed counters.
	acme := admission.WithTenant(context.Background(), "acme")
	if _, err := e.ExecuteQuery(acme, sess, q); err != nil {
		t.Fatalf("fresh tenant's burst admit: %v", err)
	}

	snap := e.MetricsSnapshot()
	if snap.Counters["admission.shed"] < 4 {
		t.Fatalf("admission.shed = %d, want >= 4", snap.Counters["admission.shed"])
	}
	if snap.Counters["admission.tenant.default.shed"] < 4 {
		t.Fatalf("admission.tenant.default.shed = %d, want >= 4",
			snap.Counters["admission.tenant.default.shed"])
	}
	if snap.Counters["admission.tenant.acme.admitted"] != 1 {
		t.Fatalf("admission.tenant.acme.admitted = %d, want 1",
			snap.Counters["admission.tenant.acme.admitted"])
	}
}

// TestAdmissionCancelNoGoroutineLeak cancels queries parked in the
// admission wait queue and queries cancelled mid-stream through a
// RowCursor, then requires the goroutine count to settle back to
// baseline and every pooled scan batch to be returned. Extends the
// morsel_test.go leak pattern across the admission layer.
func TestAdmissionCancelNoGoroutineLeak(t *testing.T) {
	e, tbl := newMorselEngine(t, ModeRowStore, 2, 4, 20000, func(c *Config) {
		c.MorselRows = 32
		c.ScanBatchRows = 64
		c.Admission = admission.Config{
			Policy: admission.TokenBucket,
			// The default tenant starves after the fixture load; "fast"
			// admits freely for the mid-stream cancellation half.
			Default:  admission.Limits{Rate: 1, Burst: 1},
			Tenants:  map[string]admission.Limits{"fast": {Rate: 1e6, Burst: 1e6}},
			MaxQueue: 64,
			MaxWait:  30 * time.Second,
		}
	})
	sess := e.NewSession()
	q := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 1, 2}}}

	baseline := runtime.NumGoroutine()
	before := storage.ReadBatchStats()

	// Cancelled while queued at admission: the bucket is dry and MaxWait
	// is far off, so each query parks in the wait queue until its context
	// fires; no engine goroutine may outlive the cancellation.
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := e.ExecuteQuery(ctx, sess, q)
			done <- err
		}()
		time.Sleep(time.Millisecond)
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, faults.ErrOverload) {
			t.Fatalf("queued-then-cancelled query: %v", err)
		}
	}

	// Cancelled while streaming through a RowCursor: admitted via the
	// unconstrained tenant, abandoned mid-scan.
	fast := admission.WithTenant(context.Background(), "fast")
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(fast)
		cur, err := e.ExecuteQueryStream(ctx, sess, q)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3 && cur.Next(); k++ {
		}
		if i%2 == 0 {
			cancel()
		}
		cur.Close()
		cancel()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		after := storage.ReadBatchStats()
		gets := after.PoolGets - before.PoolGets
		puts := after.PoolPuts - before.PoolPuts
		if n <= baseline+3 && gets == puts {
			if gets == 0 {
				t.Fatal("no pooled batches moved; the streaming half did not scan")
			}
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("leak: %d goroutines (baseline %d), %d batch gets vs %d puts\n%s",
				n, baseline, gets, puts, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGroupCommitWaitCancel checks satellite context propagation: a
// transaction whose context expires while it waits on the group-commit
// flusher unblocks with the context error, while the flush itself still
// completes (the write becomes durable, just never acked).
func TestGroupCommitWaitCancel(t *testing.T) {
	e, tbl := newMorselEngine(t, ModeRowStore, 2, 2, 100, func(c *Config) {
		// A long coalescing window holds flushes open so the commit wait
		// reliably outlives the context deadline.
		c.GroupCommitInterval = 200 * time.Millisecond
	})
	sess := e.NewSession()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.ExecuteTxn(ctx, sess, &query.Txn{Ops: []query.Op{
		updateOp(tbl, 5, 2, types.NewFloat64(42)),
	}})
	waited := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("txn blocked on flusher = %v, want context.DeadlineExceeded", err)
	}
	if waited >= 150*time.Millisecond {
		t.Fatalf("waiter held %v despite 20ms deadline", waited)
	}

	// The abandoned flush still completes: the write is durable and a
	// fresh read (after the coalescing window) observes it.
	readCtx, cancelRead := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelRead()
	deadline := time.Now().Add(2 * time.Second)
	for {
		res, err := e.ExecuteTxn(readCtx, e.NewSession(), &query.Txn{Ops: []query.Op{readOp(tbl, 5, 2)}})
		if err == nil && len(res.Tuples) > 0 && res.Tuples[0] != nil && res.Tuples[0][0].Float() == 42 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned flush never became visible (last: %v, err %v)", res, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// installedVersion reads a partition's installed version at its master site.
func installedVersion(e *Engine, pid partition.ID) uint64 {
	m, ok := e.Dir.Get(pid)
	if !ok {
		return 0
	}
	if p, ok := e.siteOf(m.Master().Site).Partition(pid); ok {
		return p.Version()
	}
	return 0
}

// TestAbandonedCommitWaitRecordsDeps pins a torn-snapshot fix: when a
// multi-partition transaction's group-commit wait is abandoned on ctx
// expiry, the flushers still durably install every partition version, so
// the co-commit dependency must be in the tracker regardless — it is
// recorded at the commit point, before the groups are enqueued. Without
// it, a later snapshot could close over one partition's new version
// without its co-committed sibling — an SI violation visible to every
// session, not just the cancelled client.
func TestAbandonedCommitWaitRecordsDeps(t *testing.T) {
	e, tbl := newMorselEngine(t, ModeRowStore, 2, 2, 100, func(c *Config) {
		c.GroupCommitInterval = 200 * time.Millisecond
	})
	sess := e.NewSession()

	// Rows 5 and 95 land in different horizontal partitions of the
	// evenly tiled 100-row table.
	tq := &query.Txn{Ops: []query.Op{
		updateOp(tbl, 5, 2, types.NewFloat64(-5)),
		updateOp(tbl, 95, 2, types.NewFloat64(-95)),
	}}
	tp, err := e.Planner.PlanTxn(tq)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.WritePIDs) != 2 {
		t.Fatalf("rows 5 and 95 map to %d partitions, want 2", len(tp.WritePIDs))
	}
	p1, p2 := tp.WritePIDs[0], tp.WritePIDs[1]
	before1, before2 := installedVersion(e, p1), installedVersion(e, p2)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.ExecuteTxn(ctx, sess, tq); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("txn blocked on flusher = %v, want context.DeadlineExceeded", err)
	}

	// Wait for the abandoned flushes to install both versions: closing a
	// snapshot that holds p1's new version must raise p2 to its
	// co-committed version.
	deadline := time.Now().Add(2 * time.Second)
	for {
		v1, v2 := installedVersion(e, p1), installedVersion(e, p2)
		if v1 > before1 && v2 > before2 {
			snap := e.Deps.Close(txn.VersionVector{p1: v1, p2: before2})
			if snap[p2] >= v2 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("co-commit dependency never recorded after abandoned group-commit wait")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
