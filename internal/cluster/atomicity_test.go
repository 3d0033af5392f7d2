package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/faults"
	"proteus/internal/partition"
	"proteus/internal/plan"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/types"
)

// waitCancelCtx is cancelled the instant anyone first waits on it. A
// transaction consults Err() up front (not yet cancelled) and selects on
// Done() only in its group-commit wait, so the cancellation lands exactly
// there: past the commit point, before the ack.
type waitCancelCtx struct {
	once sync.Once
	done chan struct{}
}

func newWaitCancelCtx() *waitCancelCtx { return &waitCancelCtx{done: make(chan struct{})} }

func (*waitCancelCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (*waitCancelCtx) Value(any) any               { return nil }

func (c *waitCancelCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.done) })
	return c.done
}

func (c *waitCancelCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// replicaPieces counts the scan pieces an aggregate-over-scan plan binds to
// a copy other than the partition's master.
func replicaPieces(pn plan.PNode) (n int64) {
	agg, ok := pn.(*plan.PAgg)
	if !ok {
		return 0
	}
	sc, ok := agg.Child.(*plan.PScan)
	if !ok {
		return 0
	}
	for _, seg := range sc.Segments {
		for _, piece := range seg.Pieces {
			if piece.Copy.Site != piece.Meta.Master().Site {
				n++
			}
		}
	}
	return n
}

// TestSnapshotAtomicity is the cross-partition snapshot-isolation check of
// the dependency tracker under everything that has torn it before: writers
// move amounts between rows of different partitions and sites, so the sum
// over all rows is invariant; one reader takes the sum as a transaction of
// point reads, another as a scan query that the planner may serve from
// column replicas polling well behind their masters. One site crashes and
// fails over mid-run and later recovers, and one writer regularly has its
// context cancelled inside the group-commit wait. Every successful read must
// see the invariant sum — before the first maintenance tick has folded the
// tracker and after — and the tracker's retained entries must stay bounded
// while the commits run into the tens of thousands. `make chaos` runs it
// under the race detector.
func TestSnapshotAtomicity(t *testing.T) {
	const (
		sites     = 3
		parts     = 6
		accounts  = 48 // 8 per partition
		writers   = 4
		initial   = 1000.0
		total     = accounts * initial
		foldAfter = 2000 // commits before the first maintenance tick
		// entryBound is far below the ~2.5 entries per commit an unfolded
		// tracker keeps, and far above what replica lag can pin.
		entryBound = 4096
	)
	commits := int64(20000)
	if testing.Short() {
		commits = 6000
	}
	crashAt, recoverAt := commits*2/5, commits*3/5
	drainAt := (foldAfter + crashAt) / 2 // the early stream's end, before the crash

	cfg := fastConfig(ModeJanus, sites)
	cfg.ReplicationInterval = 20 * time.Millisecond // replicas lag on purpose
	cfg.MaintainInterval = 0                        // the test drives the ticks
	cfg.OpDeadline = 5 * time.Second
	cfg.ScanBatchRows = 2    // the early stream below stalls mid-scan
	cfg.Site.ScanWorkers = 4 // and holds two scan workers per site
	e := New(cfg)
	t.Cleanup(e.Close)
	tbl, err := e.CreateTable(TableSpec{Name: "accounts", Cols: testCols, MaxRows: accounts, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]schema.Row, accounts)
	for i := range rows {
		rows[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(int64(i)), types.NewInt64(0), types.NewFloat64(initial), types.NewString("acct"),
		}}
	}
	if err := e.LoadRows(context.Background(), tbl.ID, rows); err != nil {
		t.Fatal(err)
	}

	// A stream opened before any write and read to its end only after
	// many ticks, bound to the row masters (column copies fold their
	// deltas at the newest version and keep no history for it to read).
	// Two-row batches fill the cursor's channel at once, so its scan
	// workers stop mid-partition and resume long after GC has run: its
	// registered snapshot must keep every version they still read.
	pn, err := e.Planner.PlanQuery(&query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{0, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	onMasters := *pn.(*plan.PScan)
	onMasters.Segments = nil
	for _, seg := range pn.(*plan.PScan).Segments {
		var pieces []plan.ScanPart
		for _, piece := range seg.Pieces {
			piece.Copy = piece.Meta.Master()
			pieces = append(pieces, piece)
		}
		onMasters.Segments = append(onMasters.Segments, plan.RowSegment{Lo: seg.Lo, Hi: seg.Hi, Pieces: pieces})
	}
	early, err := e.streamPlan(context.Background(), e.NewSession(), &onMasters, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close() // a failure before the drain must not strand its workers

	var (
		committed  atomic.Int64 // acknowledged transfers
		abandoned  atomic.Int64 // transfers whose ack was cancelled in the wait
		firstFold  atomic.Int64 // committed count at the first maintenance tick
		readsPre   atomic.Int64 // successful reads before the first fold
		readsPost  atomic.Int64
		readErrs   atomic.Int64
		replicaHit atomic.Int64 // scan pieces the planner bound to a replica
		stop       = make(chan struct{})
		wg         sync.WaitGroup
	)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	// Writers: writer w owns the accounts ≡ w (mod writers) — two in every
	// partition — and is the only one to write them, so it knows their
	// balances and can write absolute values: a transfer re-issued after an
	// error or an abandoned ack is idempotent.
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			sess := e.NewSession()
			bal := make(map[int64]float64)
			var owned []int64
			for r := int64(w); r < accounts; r += writers {
				owned = append(owned, r)
				bal[r] = initial
			}
			for n := 0; !stopped(); n++ {
				// Two or three accounts in distinct partitions.
				k := 2 + rng.Intn(2)
				var picked []int64
				seen := map[int64]bool{}
				for len(picked) < k {
					r := owned[rng.Intn(len(owned))]
					if part := r / (accounts / parts); !seen[part] {
						seen[part] = true
						picked = append(picked, r)
					}
				}
				next := make(map[int64]float64, k)
				for _, r := range picked[1:] {
					d := float64(1 + rng.Intn(50))
					next[picked[0]] = next[picked[0]] - d
					next[r] = d
				}
				var ops []query.Op
				for _, r := range picked {
					next[r] += bal[r]
					ops = append(ops, updateOp(tbl, r, 2, types.NewFloat64(next[r])))
				}
				tq := &query.Txn{Ops: ops}
				var ctx context.Context = context.Background()
				if w == 0 && n%200 == 100 {
					ctx = newWaitCancelCtx()
				}
				for {
					_, err := e.ExecuteTxn(ctx, sess, tq)
					if err == nil {
						break
					}
					if errors.Is(err, context.Canceled) {
						abandoned.Add(1)
					} else if !e.retriable(err) {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					if stopped() {
						return
					}
					ctx = context.Background()
				}
				for r, v := range next {
					bal[r] = v
				}
				committed.Add(1)
			}
		}()
	}

	noteRead := func() {
		if firstFold.Load() == 0 {
			readsPre.Add(1)
		} else {
			readsPost.Add(1)
		}
	}
	tolerated := func(err error) bool {
		// A read may time out or find a site down around the crash; it may
		// never return a wrong sum.
		return e.retriable(err) || errors.Is(err, faults.ErrTimeout)
	}

	// Reader 1: the sum as one transaction of point reads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := e.NewSession()
		var ops []query.Op
		for r := int64(0); r < accounts; r++ {
			ops = append(ops, readOp(tbl, r, 2))
		}
		for !stopped() {
			res, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: ops})
			if err != nil {
				if !tolerated(err) {
					t.Errorf("txn reader: %v", err)
					return
				}
				readErrs.Add(1)
				continue
			}
			sum := 0.0
			for i, tup := range res.Tuples {
				if tup == nil {
					t.Errorf("txn reader: account %d missing", i)
					return
				}
				sum += tup[0].Float()
			}
			if sum != total {
				t.Errorf("txn reader saw a torn snapshot: sum %v, want %v (after %d commits)", sum, total, committed.Load())
				return
			}
			noteRead()
		}
	}()

	// Reader 2: the sum as a scan query; count how often the planner binds
	// a piece to a (lagging) replica.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := e.NewSession()
		q := scanSumQuery(tbl)
		for !stopped() {
			if pn, err := e.Planner.PlanQuery(q); err == nil {
				replicaHit.Add(replicaPieces(pn))
			}
			res, err := e.ExecuteQuery(context.Background(), sess, q)
			if err != nil {
				if !tolerated(err) {
					t.Errorf("query reader: %v", err)
					return
				}
				readErrs.Add(1)
				continue
			}
			if sum, n := res.Tuples[0][0].Float(), res.Tuples[0][1].Int(); sum != total || n != accounts {
				t.Errorf("query reader saw a torn snapshot: sum %v over %d rows, want %v over %d (after %d commits)",
					sum, n, total, accounts, committed.Load())
				return
			}
			noteRead()
		}
	}()

	// Driver: maintenance ticks (none before foldAfter commits, so reads
	// run against an unfolded tracker first), the early stream's end, the
	// crash and the recovery.
	entries := e.Obs.Gauge("txn.deps_entries")
	retained := e.Obs.Gauge("rowstore.versions_retained")
	reclaimed := e.Obs.Counter("rowstore.versions_reclaimed")
	var maxEntries, unfolded, pinned int64
	crashed, recovered, drained := false, false, false
	for !t.Failed() {
		n := committed.Load()
		if n >= commits {
			break
		}
		if n >= foldAfter {
			if firstFold.Load() == 0 {
				unfolded = int64(e.Deps.Entries())
				firstFold.Store(n)
			}
			e.maintain()
			if v := entries.Value(); v > maxEntries {
				maxEntries = v
			}
		}
		if !drained && n >= drainAt {
			drained = true
			pinned = retained.Value()
			sum, rows := 0.0, 0
			for early.Next() {
				sum += early.Row()[1].Float()
				rows++
			}
			if err := early.Close(); err != nil {
				t.Errorf("early stream: %v", err)
			} else if sum != total || rows != accounts {
				t.Errorf("early stream read at its snapshot after %d commits saw sum %v over %d rows, want %v over %d",
					n, sum, rows, total, accounts)
			}
		}
		if !crashed && n >= crashAt {
			crashed = true
			if err := e.CrashSite(1); err != nil {
				t.Errorf("crash site 1: %v", err)
			}
		}
		if !recovered && n >= recoverAt {
			recovered = true
			if err := e.RecoverSite(1); err != nil {
				t.Errorf("recover site 1: %v", err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	if !crashed || !recovered || e.Obs.Counter("faults.failovers").Value() == 0 {
		t.Errorf("no failover happened mid-run (crashed=%v recovered=%v)", crashed, recovered)
	}
	if abandoned.Load() == 0 {
		t.Error("no commit ack was abandoned in the group-commit wait")
	}
	if readsPre.Load() == 0 || readsPost.Load() == 0 {
		t.Errorf("reads before the first fold: %d, after: %d; want both", readsPre.Load(), readsPost.Load())
	}
	if e.Obs.Counter("txn.deps_folded").Value() == 0 {
		t.Error("maintenance never folded the tracker")
	}
	if maxEntries > entryBound {
		t.Errorf("txn.deps_entries peaked at %d over %d commits, want <= %d", maxEntries, committed.Load(), entryBound)
	}
	// While the early stream was open its snapshot pinned every row
	// master's chains; once it closed, the ticks cut them.
	if pinned < 2*accounts || reclaimed.Value() == 0 {
		t.Errorf("%d row versions retained under the early stream, %d reclaimed in all; want chains kept, then cut",
			pinned, reclaimed.Value())
	}

	// Quiesced: replicas converge, and the final sum holds on every copy's
	// own reading of a closed snapshot.
	waitAllConverged(t, e, e.clk, 5*time.Second)
	e.maintain()
	var pids []partition.ID
	for _, m := range e.Dir.TablePartitions(tbl.ID) {
		pids = append(pids, m.ID)
	}
	if got := int64(e.Deps.Entries()); got > int64(len(pids)) {
		t.Errorf("quiesced tracker keeps %d entries, want at most one per partition (%d)", got, len(pids))
	}
	if got := retained.Value(); got != accounts {
		t.Errorf("quiesced row masters retain %d versions, want one per account (%d)", got, accounts)
	}
	res, err := e.ExecuteQuery(context.Background(), e.NewSession(), scanSumQuery(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if sum := res.Tuples[0][0].Float(); sum != total {
		t.Errorf("final sum %v, want %v", sum, total)
	}
	t.Logf("atomicity: %d commits (%d acks abandoned), %d+%d reads before/after the first fold (%d errors tolerated), "+
		"%d replica-bound scan pieces, deps entries %d unfolded at commit %d, peak %d folded, %d now; "+
		"%d row versions retained under the early stream, %d reclaimed",
		committed.Load(), abandoned.Load(), readsPre.Load(), readsPost.Load(), readErrs.Load(),
		replicaHit.Load(), unfolded, firstFold.Load(), maxEntries, e.Deps.Entries(), pinned, reclaimed.Value())
}
