package cluster

import (
	"context"
	"maps"
	"runtime"
	"sync"
	"testing"
	"time"

	"proteus/internal/faults"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// runWriterWorkload runs writers concurrent single-row update streams over
// disjoint row stripes and returns the expected final value per row.
func runWriterWorkload(t *testing.T, e *Engine, tbl *schema.Table, writers, rowsPerWriter, iters int) map[int64]float64 {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := e.NewSession()
			for i := 1; i <= iters; i++ {
				row := int64(w*rowsPerWriter + i%rowsPerWriter)
				v := types.NewFloat64(float64(w*1000000 + i))
				if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{
					Ops: []query.Op{updateOp(tbl, row, 2, v)},
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	// Each writer hits row w*rowsPerWriter+r on iterations i with
	// i%rowsPerWriter == r; the last such i wins.
	want := map[int64]float64{}
	for w := 0; w < writers; w++ {
		for r := 0; r < rowsPerWriter; r++ {
			last := 0
			for i := iters; i >= 1; i-- {
				if i%rowsPerWriter == r {
					last = i
					break
				}
			}
			if last > 0 {
				want[int64(w*rowsPerWriter+r)] = float64(w*1000000 + last)
			}
		}
	}
	return want
}

// TestGroupCommitEquivalence drives a concurrent write workload through
// the leader/follower commit path and checks it converges to the exact
// per-row final state: group commit may reorder flush timing but never
// acked writes. The layout-churn case converts every written partition's
// master copy between row and column layouts in a loop, so each change
// barriers the queues while writers lead and follow. Every row is written
// exactly once, so a write a conversion drops shows in the final state.
func TestGroupCommitEquivalence(t *testing.T) {
	const writers, rowsPerWriter, iters = 4, 60, 60
	for _, tc := range []struct {
		name  string
		churn bool
	}{{"grouped", false}, {"layout-churn", true}} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(fastConfig(ModeRowStore, 2))
			defer e.Close()
			tbl, err := e.CreateTable(TableSpec{
				Name: "items", Cols: testCols, MaxRows: 100000, Partitions: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			rows := int64(writers * rowsPerWriter)
			data := make([]schema.Row, 0, rows)
			for i := int64(0); i < rows; i++ {
				data = append(data, schema.Row{ID: schema.RowID(i), Vals: []types.Value{
					types.NewInt64(i), types.NewInt64(i % 10), types.NewFloat64(0), types.NewString("r"),
				}})
			}
			if err := e.LoadRows(context.Background(), tbl.ID, data); err != nil {
				t.Fatal(err)
			}

			// The churn loop converts at least once, and keeps converting
			// until the writers are done.
			stop, churned := make(chan struct{}), make(chan struct{})
			if tc.churn {
				go func() {
					defer close(churned)
					layouts := []storage.Layout{storage.DefaultColumnLayout(), storage.DefaultRowLayout()}
					for n := 0; ; n++ {
						for _, m := range e.Dir.TablePartitions(tbl.ID) {
							if m.Bounds.RowStart >= schema.RowID(rows) {
								continue
							}
							if err := e.ChangeCopyLayout(m.ID, m.Master().Site, layouts[n%2]); err != nil {
								t.Error(err)
							}
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			} else {
				close(churned)
			}
			want := runWriterWorkload(t, e, tbl, writers, rowsPerWriter, iters)
			close(stop)
			<-churned

			sess := e.NewSession()
			for row, v := range want {
				res, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{
					Ops: []query.Op{readOp(tbl, row, 2)},
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Tuples[0][0].Float(); got != v {
					t.Errorf("row %d = %v, want %v", row, got, v)
				}
			}
		})
	}
}

// TestGroupCommitCrossPartitionDeps checks a multi-partition transaction
// through the batched pipeline: both writes become visible together, and
// each partition's redo record carries the commit's whole version vector
// as its dependencies — its own version and its sibling's.
func TestGroupCommitCrossPartitionDeps(t *testing.T) {
	e, tbl := newTestEngine(t, ModeRowStore, 2, 4, 100)
	// Rows 7 and 25007 land in different partitions of the 4-way split.
	rowsAt(t, e, tbl, 25000, 100)

	sess := e.NewSession()
	if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
		updateOp(tbl, 7, 2, types.NewFloat64(-7)),
		updateOp(tbl, 25007, 2, types.NewFloat64(-25007)),
	}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
		readOp(tbl, 7, 2), readOp(tbl, 25007, 2),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples[0][0].Float() != -7 || res.Tuples[1][0].Float() != -25007 {
		t.Fatalf("cross-partition read after commit: %v", res.Tuples)
	}

	// Find the two records the transaction appended and cross-check Deps.
	metas := e.Dir.TablePartitions(tbl.ID)
	recOf := func(row schema.RowID) (pid int, ver uint64, deps map[uint64]uint64) {
		t.Helper()
		for _, m := range metas {
			recs, _ := e.Broker.Poll(m.ID, e.Broker.BaseOffset(m.ID), 0)
			for _, rec := range recs {
				for _, en := range rec.Entries {
					if en.Row == row {
						d := map[uint64]uint64{}
						for q, v := range rec.Deps {
							d[uint64(q)] = v
						}
						return int(m.ID), rec.Version, d
					}
				}
			}
		}
		t.Fatalf("no redo record for row %d", row)
		return 0, 0, nil
	}
	pa, va, da := recOf(7)
	pb, vb, db := recOf(25007)
	if pa == pb {
		t.Fatalf("rows 7 and 25007 share partition %d", pa)
	}
	want := map[uint64]uint64{uint64(pa): va, uint64(pb): vb}
	if !maps.Equal(da, want) {
		t.Errorf("record %d deps = %v, want the commit's vector %v", pa, da, want)
	}
	if !maps.Equal(db, want) {
		t.Errorf("record %d deps = %v, want the commit's vector %v", pb, db, want)
	}
}

// leaderHold is how long holdLeader keeps site 1's flush leader busy.
const leaderHold = 300 * time.Millisecond

// holdLeader makes a committing transaction hold the leadership of site
// 1's commit queue for about leaderHold, on newHeldEngine's engine. The
// holder writes rows 100 and 101 (mastered at site 2, its coordinator) and
// row 99 (mastered at site 1) with leaderHold of link latency on 2 -> 1,
// so it leads site 1's flush and then sits in that flush's decision ack
// while any later commit at site 1 follows. holdLeader returns once the
// holder is past its own append, so the hold is underway, and registers a
// cleanup that waits the holder out.
func holdLeader(t *testing.T, e *Engine, tbl *schema.Table) {
	t.Helper()
	holder := &query.Txn{Ops: []query.Op{
		updateOp(tbl, 100, 2, types.NewFloat64(-1)),
		updateOp(tbl, 101, 2, types.NewFloat64(-1)),
		updateOp(tbl, 99, 2, types.NewFloat64(-1)),
	}}
	tp, err := e.Planner.PlanTxn(holder)
	if err != nil {
		t.Fatal(err)
	}
	if held := tp.Bindings[2].Pieces[0]; tp.Coordinator != 2 || held.Master().Site != 1 {
		t.Fatalf("holder coordinated at site %d writing site %v, want 2 and 1", tp.Coordinator, held.Master().Site)
	}
	q := e.gc.queues[1]
	q.mu.Lock()
	done0 := q.done
	q.mu.Unlock()

	e.Faults.SetLink(2, 1, faults.LinkFault{Latency: leaderHold})
	errc := make(chan error, 1)
	go func() {
		_, err := e.ExecuteTxn(context.Background(), e.NewSession(), holder)
		errc <- err
	}()
	t.Cleanup(func() {
		if err := <-errc; err != nil {
			t.Errorf("holder txn: %v", err)
		}
		e.Faults.ClearLinks()
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		inAck := q.leading && q.done > done0
		q.mu.Unlock()
		if inAck {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("holder never led site 1's flush")
		}
		time.Sleep(time.Millisecond)
	}
}

// newHeldEngine builds the three-site row-store engine holdLeader expects:
// 150 rows in three 50-row partitions mastered at sites 0, 1 and 2.
func newHeldEngine(t *testing.T) (*Engine, *schema.Table) {
	return newMorselEngine(t, ModeRowStore, 3, 3, 150, nil)
}

// TestGroupCommitCoalesces fires a burst of concurrent single-row commits
// at a site whose flush leader is held, and checks the pipeline actually
// batched them: the burst follows, and the leader drains it in fewer
// flushes than transactions.
func TestGroupCommitCoalesces(t *testing.T) {
	e, tbl := newHeldEngine(t)
	holdLeader(t, e, tbl)

	const txns = 64
	flushes0 := e.Obs.Counter("commit.flushes").Value()
	records0 := e.Obs.Counter("commit.flushed_records").Value()
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, txns)
	for i := 0; i < txns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			sess := e.NewSession()
			_, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{
				Ops: []query.Op{updateOp(tbl, int64(50+i%49), 2, types.NewFloat64(float64(i)))},
			})
			if err != nil {
				errs <- err
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	flushes := e.Obs.Counter("commit.flushes").Value() - flushes0
	if flushes == 0 || flushes >= txns {
		t.Errorf("flushes = %d for %d concurrent txns, want coalescing", flushes, txns)
	}
	if n := e.Obs.Counter("commit.flushed_records").Value() - records0; n < txns {
		t.Errorf("flushed records = %d, want >= %d", n, txns)
	}
}

// TestGroupCommitStartsNoGoroutine checks that commit flushes run on the
// committing transactions' own goroutines: an engine that committed
// cross-site transactions leaves no goroutine behind once closed.
func TestGroupCommitStartsNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := New(fastConfig(ModeRowStore, 2))
	tbl, err := e.CreateTable(TableSpec{Name: "items", Cols: testCols, MaxRows: 100, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadRows(context.Background(), tbl.ID, testRows(100)); err != nil {
		t.Fatal(err)
	}
	runWriterWorkload(t, e, tbl, 4, 25, 20)
	if _, err := e.ExecuteTxn(context.Background(), e.NewSession(), &query.Txn{Ops: []query.Op{
		updateOp(tbl, 5, 2, types.NewFloat64(-5)),
		updateOp(tbl, 95, 2, types.NewFloat64(-95)),
	}}); err != nil {
		t.Fatal(err)
	}
	e.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("leak: %d goroutines after Close (baseline %d)\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
