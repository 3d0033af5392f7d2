package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"proteus/internal/metadata"
	"proteus/internal/partition"
	"proteus/internal/query"
	"proteus/internal/redolog"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// extractCheckpoint is the checkpoint the maintenance tick used to take
// before the broker folded its own log: the master copy's rows, version and
// log end offset captured under the partition's exclusive lock, behind a
// group-commit barrier (commits stage and enqueue under the lock but append
// and install in a flush after the lock drops, so the barrier is what
// makes the three mutually consistent). It survives as the oracle folded
// images are compared against.
func extractCheckpoint(e *Engine, m *metadata.PartitionMeta) (redolog.Checkpoint, bool) {
	e.gc.barrier(m.Master().Site)
	ls := e.Locks.AcquireAll(nil, []partition.ID{m.ID})
	defer ls.ReleaseAll()
	// Resolve the master only under the lock: a failover may have moved it.
	master := m.Master()
	s := e.siteOf(master.Site)
	if s.Down() {
		return redolog.Checkpoint{}, false
	}
	p, ok := s.Partition(m.ID)
	if !ok {
		return redolog.Checkpoint{}, false
	}
	e.gc.barrier(master.Site)
	return redolog.Checkpoint{
		Rows:    p.ExtractAll(storage.Latest),
		Version: p.Version(),
		Offset:  e.Broker.EndOffset(m.ID),
	}, true
}

// sameRows compares two row sets by id, whatever order each lists them in.
func sameRows(t *testing.T, ctx string, got, want []schema.Row) {
	t.Helper()
	byID := func(rows []schema.Row) []schema.Row {
		out := append([]schema.Row(nil), rows...)
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	got, want = byID(got), byID(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: row %d has id %d, want %d", ctx, i, got[i].ID, want[i].ID)
		}
		for c := range want[i].Vals {
			if !types.Equal(got[i].Vals[c], want[i].Vals[c]) {
				t.Fatalf("%s: row id %d col %d = %v, want %v", ctx, want[i].ID, c, got[i].Vals[c], want[i].Vals[c])
			}
		}
	}
}

// TestRecoveryFromFoldedCheckpoints runs inserts, updates and deletes long
// enough that every partition's checkpoint has been folded forward at least
// three times and its log truncated, crashes a site, keeps writing, recovers
// it, and requires every rebuilt copy to equal the copy that never crashed,
// the rows the workload believes it wrote, and — once quiesced and folded to
// the log end — the broker's image to equal the extract-under-lock oracle,
// on row and on column masters. One table is bulk-loaded (its base image
// comes from SaveCheckpoint), the other is born empty (its image is folded
// up from nothing).
func TestRecoveryFromFoldedCheckpoints(t *testing.T) {
	for _, mode := range []Mode{ModeRowStore, ModeColumnStore} {
		t.Run(mode.String(), func(t *testing.T) { recoveryFromFoldedCheckpoints(t, mode) })
	}
}

func recoveryFromFoldedCheckpoints(t *testing.T, mode Mode) {
	const (
		partitions = 4
		idsPerPart = 60
		maxRows    = partitions * idsPerPart
	)
	cfg := fastConfig(mode, 2)
	cfg.MaintainInterval = 0 // the test drives the tick itself
	cfg.RedoRetention = 8
	e := New(cfg)
	t.Cleanup(e.Close)
	ctx := context.Background()

	vals := func(rng *rand.Rand, id int64) []types.Value {
		return []types.Value{
			types.NewInt64(id), types.NewInt64(rng.Int63n(10)),
			types.NewFloat64(float64(rng.Intn(1000))), types.NewString(fmt.Sprintf("n%d", rng.Intn(1000))),
		}
	}
	rng := rand.New(rand.NewSource(int64(mode) + 1))
	var tables []*schema.Table
	model := map[schema.TableID]map[int64][]types.Value{}
	for _, name := range []string{"loaded", "born_empty"} {
		tbl, err := e.CreateTable(TableSpec{Name: name, Cols: testCols, MaxRows: maxRows, Partitions: partitions})
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl)
		model[tbl.ID] = map[int64][]types.Value{}
	}
	var load []schema.Row
	for id := int64(0); id < maxRows; id += 2 {
		v := vals(rng, id)
		load = append(load, schema.Row{ID: schema.RowID(id), Vals: v})
		model[tables[0].ID][id] = v
	}
	if err := e.LoadRows(ctx, tables[0].ID, load); err != nil {
		t.Fatal(err)
	}
	var metas []*metadata.PartitionMeta
	for _, tbl := range tables {
		for _, m := range e.Dir.TablePartitions(tbl.ID) {
			if err := e.AddReplicaOp(m.ID, 1-m.Master().Site, e.initialLayout()); err != nil {
				t.Fatal(err)
			}
			metas = append(metas, m)
		}
	}

	sess := e.NewSession()
	folds := map[partition.ID]int{}
	lastOff := map[partition.ID]int64{}
	tick := func() {
		e.maintain()
		for _, m := range metas {
			if off := e.Broker.CheckpointOffset(m.ID); off > lastOff[m.ID] {
				lastOff[m.ID] = off
				folds[m.ID]++
			}
		}
	}
	write := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			tbl := tables[rng.Intn(len(tables))]
			rows := model[tbl.ID]
			txn := &query.Txn{}
			next := map[int64][]types.Value{}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				id := rng.Int63n(maxRows)
				if _, dup := next[id]; dup {
					continue
				}
				cur, live := rows[id]
				switch {
				case !live:
					v := vals(rng, id)
					next[id] = v
					txn.Ops = append(txn.Ops, query.Op{Kind: query.OpInsert, Table: tbl.ID, Row: schema.RowID(id), Vals: v})
				case rng.Intn(8) == 0:
					next[id] = nil
					txn.Ops = append(txn.Ops, query.Op{Kind: query.OpDelete, Table: tbl.ID, Row: schema.RowID(id)})
				default:
					col := schema.ColID(1 + rng.Intn(3))
					v := append([]types.Value(nil), cur...)
					v[col] = vals(rng, id)[col]
					next[id] = v
					txn.Ops = append(txn.Ops, query.Op{Kind: query.OpUpdate, Table: tbl.ID, Row: schema.RowID(id), Cols: []schema.ColID{col}, Vals: []types.Value{v[col]}})
				}
			}
			if _, err := e.ExecuteTxn(ctx, sess, txn); err != nil {
				t.Fatalf("txn %v: %v", txn.Ops, err)
			}
			for id, v := range next {
				if v == nil {
					delete(rows, id)
				} else {
					rows[id] = v
				}
			}
			if i%8 == 7 {
				tick()
			}
		}
	}
	converge := func() {
		t.Helper()
		for _, m := range metas {
			for _, r := range m.Replicas() {
				waitReplicaVersion(t, e, m.ID, r.Site, masterVersion(t, e, m), 2*time.Second)
			}
		}
	}
	copyRows := func(site simnet.SiteID, pid partition.ID) []schema.Row {
		t.Helper()
		p, ok := e.siteOf(site).Partition(pid)
		if !ok {
			t.Fatalf("site %d holds no copy of partition %d", site, pid)
		}
		return p.ExtractAll(storage.Latest)
	}
	check := func(stage string) {
		t.Helper()
		converge()
		for _, m := range metas {
			ctx := fmt.Sprintf("%s, partition %d", stage, m.ID)
			var want []schema.Row
			for id, v := range model[m.Bounds.Table] {
				if m.Bounds.ContainsRow(schema.RowID(id)) {
					want = append(want, schema.Row{ID: schema.RowID(id), Vals: v})
				}
			}
			sameRows(t, ctx+": never-crashed copy vs workload", copyRows(0, m.ID), want)
			sameRows(t, ctx+": rebuilt copy vs never-crashed copy", copyRows(1, m.ID), copyRows(0, m.ID))

			e.Broker.FoldCheckpoint(m.ID, 1)
			img, ok := e.Broker.Checkpoint(m.ID)
			oracle, ok2 := extractCheckpoint(e, m)
			if !ok || !ok2 {
				t.Fatalf("%s: image present %v, oracle present %v", ctx, ok, ok2)
			}
			if img.Version != oracle.Version || img.Offset != oracle.Offset {
				t.Errorf("%s: image at version %d offset %d, oracle at %d / %d", ctx, img.Version, img.Offset, oracle.Version, oracle.Offset)
			}
			sameRows(t, ctx+": folded image vs extract-under-lock oracle", img.Rows, oracle.Rows)
		}
	}

	write(900)
	for _, m := range metas {
		if folds[m.ID] < 3 || e.Broker.BaseOffset(m.ID) == 0 {
			t.Fatalf("partition %d: %d folds, log base %d — the run is too short to test anything", m.ID, folds[m.ID], e.Broker.BaseOffset(m.ID))
		}
	}
	if err := e.CrashSite(1); err != nil {
		t.Fatal(err)
	}
	write(150) // site 0's copies take over as masters; folds go on regardless
	if err := e.RecoverSite(1); err != nil {
		t.Fatal(err)
	}
	write(50)
	check("after recovery")

	// Quiesced and folded to the log end, a second crash rebuilds site 1
	// from the images alone: there is nothing left to replay.
	if err := e.CrashSite(1); err != nil {
		t.Fatal(err)
	}
	if err := e.RecoverSite(1); err != nil {
		t.Fatal(err)
	}
	check("rebuilt from images only")

	snap := e.MetricsSnapshot()
	if snap.Counters["redolog.checkpoint_folded_records"] == 0 || snap.Counters["redolog.checkpoint_fold_rejected"] != 0 {
		t.Errorf("folded_records = %d, fold_rejected = %d", snap.Counters["redolog.checkpoint_folded_records"], snap.Counters["redolog.checkpoint_fold_rejected"])
	}
	var imageRows int64
	for _, m := range metas {
		img, _ := e.Broker.Checkpoint(m.ID)
		imageRows += int64(len(img.Rows))
	}
	if got := snap.Gauges["redolog.checkpoint_image_rows"]; got != imageRows {
		t.Errorf("checkpoint_image_rows gauge = %d, images hold %d rows", got, imageRows)
	}
	if snap.Latencies["maintain.tick_us"].Count == 0 {
		t.Error("maintain.tick_us recorded no tick")
	}
}

// TestMaintainTakesNoPartitionLock holds every partition's exclusive lock —
// as a stalled transaction or a long layout change would — and requires a
// maintenance tick to finish and the checkpoints to advance regardless.
func TestMaintainTakesNoPartitionLock(t *testing.T) {
	cfg := fastConfig(ModeRowStore, 2)
	cfg.MaintainInterval = 0
	cfg.RedoRetention = 4
	e := New(cfg)
	t.Cleanup(e.Close)
	tbl, err := e.CreateTable(TableSpec{Name: "items", Cols: testCols, MaxRows: 400, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	rowsAt(t, e, tbl, 0, 400)
	sess := e.NewSession()
	for i := int64(0); i < 400; i += 5 {
		if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
			updateOp(tbl, i, 2, types.NewFloat64(float64(-i))),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	var pids []partition.ID
	before := map[partition.ID]int64{}
	for _, m := range e.Dir.TablePartitions(tbl.ID) {
		pids = append(pids, m.ID)
		before[m.ID] = e.Broker.CheckpointOffset(m.ID)
	}
	ls := e.Locks.AcquireAll(nil, pids)
	defer ls.ReleaseAll()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.maintain()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("maintain() did not finish while the partition locks were held")
	}
	for _, pid := range pids {
		if after := e.Broker.CheckpointOffset(pid); after <= before[pid] || after != e.Broker.EndOffset(pid) {
			t.Errorf("partition %d: checkpoint offset %d -> %d, log end %d", pid, before[pid], after, e.Broker.EndOffset(pid))
		}
	}
}
