package cluster

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/partition"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/txn"
	"proteus/internal/types"
)

// TestSnapRegistryHorizon pins the horizon rules: the lowest installed
// version, lowered by every published snapshot, pinned at the previous
// horizon while a slot is pending, and free of released slots.
func TestSnapRegistryHorizon(t *testing.T) {
	r := newSnapRegistry()
	const a, b, c = partition.ID(1), partition.ID(2), partition.ID(3)
	check := func(step string, got txn.VersionVector, want txn.VersionVector) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: horizon %v, want %v", step, got, want)
		}
		for pid, v := range want {
			if got[pid] != v {
				t.Fatalf("%s: horizon %v, want %v", step, got, want)
			}
		}
	}
	check("idle", r.horizon(txn.VersionVector{a: 10, b: 20}), txn.VersionVector{a: 10, b: 20})

	s1 := r.acquire()
	r.publish(s1, txn.VersionVector{a: 7, b: 25, c: 1}) // c has no live copy: ignored
	check("published", r.horizon(txn.VersionVector{a: 12, b: 22}), txn.VersionVector{a: 7, b: 22})

	s2 := r.acquire() // pending: everything at most the last horizon
	check("pending", r.horizon(txn.VersionVector{a: 30, b: 30, c: 30}), txn.VersionVector{a: 7, b: 22, c: 0})
	r.publish(s2, txn.VersionVector{a: 30, b: 30})
	r.release(s1)
	check("released", r.horizon(txn.VersionVector{a: 40, b: 40}), txn.VersionVector{a: 30, b: 30})
	r.release(s2)
	if n := len(r.slots) - len(r.free); n != 0 {
		t.Fatalf("%d slots active after every release", n)
	}
	if s := r.acquire(); s != s2 && s != s1 {
		t.Error("a released slot was not reused")
	}
	if allocs := testing.AllocsPerRun(100, func() { r.release(r.acquire()) }); allocs != 0 {
		t.Errorf("acquire+release allocates %v times, want 0", allocs)
	}
}

// TestSnapshotsRaceVersionGC races snapshot creation against the tick's
// version GC: maintenance ticks run back to back while writers rewrite
// whole partitions — every row of a partition gets the same number and a
// string derived from it, long or short — and readers take snapshots by
// transaction, query and stream. A snapshot missing a version it may read
// shows as a missing row, a row from another version than its neighbours,
// or a string that does not match its number.
func TestSnapshotsRaceVersionGC(t *testing.T) {
	const (
		parts   = 4
		perPart = 16
		rows    = parts * perPart
	)
	commits := int64(3000)
	if testing.Short() {
		commits = 800
	}
	cfg := fastConfig(ModeRowStore, 2)
	cfg.MaintainInterval = 0 // the test drives the ticks
	e := New(cfg)
	t.Cleanup(e.Close)
	tbl, err := e.CreateTable(TableSpec{Name: "r", Cols: testCols, MaxRows: rows, Partitions: parts,
		PlaceAt: func(p int) simnet.SiteID { return simnet.SiteID(p % 2) }})
	if err != nil {
		t.Fatal(err)
	}
	note := func(n int64) types.Value { // 0 to 19 bytes: inline and tail strings
		return types.NewString(strings.Repeat("s", int(n%20)))
	}
	initial := make([]schema.Row, rows)
	for i := range initial {
		initial[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(int64(i)), types.NewInt64(0), types.NewFloat64(0), note(0)}}
	}
	ctx := context.Background()
	if err := e.LoadRows(ctx, tbl.ID, initial); err != nil {
		t.Fatal(err)
	}
	for _, m := range e.Dir.TablePartitions(tbl.ID) {
		if err := e.AddReplicaOp(m.ID, 1-m.Master().Site, storage.DefaultRowLayout()); err != nil {
			t.Fatal(err)
		}
	}

	var (
		next      atomic.Int64
		committed atomic.Int64
		reads     atomic.Int64
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	// check validates one partition's rows as read at one snapshot: all
	// present, one number, matching strings.
	check := func(who string, part int, vals [][]types.Value) bool {
		if len(vals) != perPart {
			t.Errorf("%s: partition %d read %d rows, want %d", who, part, len(vals), perPart)
			return false
		}
		for _, v := range vals {
			if v == nil {
				t.Errorf("%s: partition %d: a row is missing", who, part)
				return false
			}
			n := int64(v[0].Float())
			if v[0] != vals[0][0] || v[1].Str() != note(n).Str() {
				t.Errorf("%s: partition %d mixes versions: %v vs %v", who, part, v, vals[0])
				return false
			}
		}
		reads.Add(1)
		return true
	}
	partRange := func(part int) storage.Pred {
		return storage.Pred{
			{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(int64(part * perPart))},
			{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(int64((part + 1) * perPart))},
		}
	}

	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := e.NewSession()
			for i := 0; !stopped(); i++ {
				part := 2*(i%2) + w // each writer owns two partitions
				n := next.Add(1)
				var ops []query.Op
				for r := part * perPart; r < (part+1)*perPart; r++ {
					ops = append(ops,
						updateOp(tbl, int64(r), 2, types.NewFloat64(float64(n))),
						updateOp(tbl, int64(r), 3, note(n)))
				}
				if _, err := e.ExecuteTxn(ctx, sess, &query.Txn{Ops: ops}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				committed.Add(1)
			}
		}()
	}
	readers := []func(part int, sess *Session) bool{
		func(part int, sess *Session) bool {
			var ops []query.Op
			for r := part * perPart; r < (part+1)*perPart; r++ {
				ops = append(ops, readOp(tbl, int64(r), 2, 3))
			}
			res, err := e.ExecuteTxn(ctx, sess, &query.Txn{Ops: ops})
			if err != nil {
				t.Errorf("txn reader: %v", err)
				return false
			}
			return check("txn reader", part, res.Tuples)
		},
		func(part int, sess *Session) bool {
			q := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{2, 3}, Pred: partRange(part)}}
			res, err := e.ExecuteQuery(ctx, sess, q)
			if err != nil {
				t.Errorf("query reader: %v", err)
				return false
			}
			return check("query reader", part, res.Tuples)
		},
		func(part int, sess *Session) bool {
			q := &query.Query{Root: &query.ScanNode{Table: tbl.ID, Cols: []schema.ColID{2, 3}, Pred: partRange(part)}}
			cur, err := e.ExecuteQueryStream(ctx, sess, q)
			if err != nil {
				t.Errorf("stream reader: %v", err)
				return false
			}
			var vals [][]types.Value
			for cur.Next() {
				time.Sleep(50 * time.Microsecond) // a slow consumer: ticks pass mid-stream
				vals = append(vals, append([]types.Value(nil), cur.Row()...))
			}
			if err := cur.Close(); err != nil {
				t.Errorf("stream reader: %v", err)
				return false
			}
			return check("stream reader", part, vals)
		},
	}
	for i, read := range readers {
		i, read := i, read
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := e.NewSession()
			for n := i; !stopped() && read(n%parts, sess); n++ {
			}
		}()
	}

	// Ticks back to back, each one's horizon racing the readers' snapshots.
	ticks := 0
	for committed.Load() < commits && !t.Failed() {
		e.maintain()
		ticks++
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	reclaimed := e.Obs.Counter("rowstore.versions_reclaimed").Value()
	if reclaimed == 0 || reads.Load() == 0 {
		t.Fatalf("%d versions reclaimed, %d reads checked; want both", reclaimed, reads.Load())
	}
	if n := len(e.snaps.slots) - len(e.snaps.free); n != 0 {
		t.Errorf("%d snapshots still registered after every operation ended", n)
	}
	t.Logf("%d commits, %d reads checked, %d ticks, %d versions reclaimed", committed.Load(), reads.Load(), ticks, reclaimed)
}
