package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"proteus/internal/metadata"
	"proteus/internal/partition"
	"proteus/internal/query"
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
func extractCheckpoint(e *Engine, m *metadata.PartitionMeta) (rowImage, bool) {
	e.gc.barrier(m.Master().Site)
	ls := e.Locks.AcquireAll(nil, []partition.ID{m.ID})
	defer ls.ReleaseAll()
	// Resolve the master only under the lock: a failover may have moved it.
	master := m.Master()
	s := e.siteOf(master.Site)
	if s.Down() {
		return rowImage{}, false
	}
	p, ok := s.Partition(m.ID)
	if !ok {
		return rowImage{}, false
	}
	e.gc.barrier(master.Site)
	return rowImage{
		Rows:    p.ExtractAll(storage.Latest),
		Version: p.Version(),
		Offset:  e.Broker.EndOffset(m.ID),
	}, true
}

// rowImage is a checkpoint boxed to rows ordered by id.
type rowImage struct {
	Rows    []schema.Row
	Version uint64
	Offset  int64
}

// brokerImage boxes the broker's checkpoint of pid.
func brokerImage(e *Engine, pid partition.ID) (rowImage, bool) {
	ck, ok := e.Broker.Checkpoint(pid)
	return rowImage{Rows: ck.Rows(), Version: ck.Version, Offset: ck.Offset}, ok
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
			img, ok := brokerImage(e, m.ID)
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
		img, _ := brokerImage(e, m.ID)
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

// sameCell is types.Equal that also tells NULL from a value and requires
// the kind to survive.
func sameCell(a, b types.Value) bool {
	return a.K == b.K && types.Equal(a, b)
}

// TestCheckpointImageRoundTripsNulls: column-copy masters whose every kind
// of column — Int64, Float64, String, Time, Bool — holds NULLs go through a
// sorted base image, a split's base images and folds of updates that set
// and clear NULLs (the Time column's only NULL is cleared, the Bool column
// gets its first), deletes and inserts arriving in descending id order.
// The folded images must equal the extract-under-lock oracle, and copies
// rebuilt from them after a crash of each site must read every cell back,
// NULLs still NULL.
func TestCheckpointImageRoundTripsNulls(t *testing.T) {
	cfg := fastConfig(ModeColumnStore, 2)
	cfg.MaintainInterval = 0 // the test drives the tick itself
	cfg.RedoRetention = 4
	e := New(cfg)
	t.Cleanup(e.Close)
	ctx := context.Background()
	cols := []schema.Column{
		{Name: "id", Kind: types.KindInt64}, {Name: "i", Kind: types.KindInt64},
		{Name: "f", Kind: types.KindFloat64}, {Name: "s", Kind: types.KindString, AvgSize: 8},
		{Name: "ts", Kind: types.KindTime}, {Name: "b", Kind: types.KindBool},
	}
	const maxRows = 200
	tbl, err := e.CreateTable(TableSpec{Name: "nulls", Cols: cols, MaxRows: maxRows, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	parts := e.Dir.TablePartitions(tbl.ID)
	// The second partition's master sorts by column i, so its rows reach
	// the base image in value order.
	sorted := storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 1}
	if err := e.ChangeCopyLayout(parts[1].ID, parts[1].Master().Site, sorted); err != nil {
		t.Fatal(err)
	}
	vals := func(id int64) []types.Value {
		v := []types.Value{
			types.NewInt64(id), types.NewInt64((id * 37) % 101), types.NewFloat64(float64(id) / 4),
			types.NewString(fmt.Sprintf("s%d", id)), types.NewTimeMicros(1_000_000 * id), types.NewBool(id%3 == 0),
		}
		for c := 1; c <= 3; c++ { // Int64, Float64 and String hold several NULLs
			if id%7 == int64(c) {
				v[c] = types.Null()
			}
		}
		if id == 40 { // the Time column's only NULL; Bool starts with none
			v[4] = types.Null()
		}
		return v
	}
	model := map[int64][]types.Value{}
	var load []schema.Row
	for id := int64(0); id < maxRows; id += 2 {
		model[id] = vals(id)
		load = append(load, schema.Row{ID: schema.RowID(id), Vals: vals(id)})
	}
	if err := e.LoadRows(ctx, tbl.ID, load); err != nil {
		t.Fatal(err)
	}
	if err := e.SplitH(parts[0].ID, 50); err != nil { // base images from replaceInDirectory
		t.Fatal(err)
	}

	sess := e.NewSession()
	exec := func(ops ...query.Op) {
		t.Helper()
		if _, err := e.ExecuteTxn(ctx, sess, &query.Txn{Ops: ops}); err != nil {
			t.Fatalf("txn %v: %v", ops, err)
		}
		for _, op := range ops {
			switch op.Kind {
			case query.OpInsert:
				model[int64(op.Row)] = op.Vals
			case query.OpDelete:
				delete(model, int64(op.Row))
			case query.OpUpdate:
				v := append([]types.Value(nil), model[int64(op.Row)]...)
				for i, c := range op.Cols {
					v[c] = op.Vals[i]
				}
				model[int64(op.Row)] = v
			}
		}
		e.maintain()
	}
	set := func(id int64, col schema.ColID, v types.Value) query.Op { return updateOp(tbl, id, col, v) }
	exec(set(40, 4, types.NewTimeMicros(7))) // clears the Time column's only NULL
	exec(set(2, 5, types.Null()), set(120, 5, types.Null()))
	for id := int64(0); id < maxRows; id += 14 {
		exec(set(id, 1, types.Null()), set(id, 3, types.Null())) // set NULLs
		exec(set(id+2, 2, types.NewFloat64(-1)))                 // clears f's NULL at id%7 == 2
	}
	for id := int64(8); id < maxRows; id += 28 {
		exec(set(id, 1, types.NewInt64(-id)), set(id, 3, types.NewString("back"))) // clear them again
	}
	for id := int64(maxRows - 1); id > 0; id -= 6 { // inserts in descending id order
		v := vals(id)
		if id%4 == 1 {
			v[5] = types.Null()
		}
		exec(query.Op{Kind: query.OpInsert, Table: tbl.ID, Row: schema.RowID(id), Vals: v})
	}
	for id := int64(4); id < maxRows; id += 18 {
		exec(query.Op{Kind: query.OpDelete, Table: tbl.ID, Row: schema.RowID(id)})
	}

	metas := e.Dir.TablePartitions(tbl.ID)
	nulls := map[int]int{}
	for _, v := range model {
		for c := range v {
			if v[c].IsNull() {
				nulls[c]++
			}
		}
	}
	if nulls[1] == 0 || nulls[2] == 0 || nulls[3] == 0 || nulls[4] != 0 || nulls[5] == 0 {
		t.Fatalf("NULLs per column %v: the history does not cover its cases", nulls)
	}
	same := func(ctx string, got []schema.Row, m *metadata.PartitionMeta) {
		t.Helper()
		n := 0
		for _, r := range got {
			want, ok := model[int64(r.ID)]
			if !ok || !m.Bounds.ContainsRow(r.ID) {
				t.Fatalf("%s: row %d should not be there", ctx, r.ID)
			}
			for c := range want {
				if !sameCell(r.Vals[c], want[c]) {
					t.Fatalf("%s: row %d col %d = %v (kind %v), want %v (kind %v)", ctx, r.ID, c, r.Vals[c], r.Vals[c].K, want[c], want[c].K)
				}
			}
			n++
		}
		for id := range model {
			if m.Bounds.ContainsRow(schema.RowID(id)) {
				n--
			}
		}
		if n != 0 {
			t.Fatalf("%s: %d rows missing", ctx, -n)
		}
	}
	for _, m := range metas {
		e.Broker.FoldCheckpoint(m.ID, 1)
		img, ok := brokerImage(e, m.ID)
		oracle, ok2 := extractCheckpoint(e, m)
		ctx := fmt.Sprintf("partition %d", m.ID)
		if !ok || !ok2 || img.Version != oracle.Version || img.Offset != oracle.Offset {
			t.Fatalf("%s: image %v at %d/%d, oracle %v at %d/%d", ctx, ok, img.Version, img.Offset, ok2, oracle.Version, oracle.Offset)
		}
		same(ctx+": folded image", img.Rows, m)
		same(ctx+": extract-under-lock oracle", oracle.Rows, m)
	}
	for _, site := range []simnet.SiteID{0, 1} {
		if err := e.CrashSite(site); err != nil {
			t.Fatal(err)
		}
		if err := e.RecoverSite(site); err != nil {
			t.Fatal(err)
		}
		for _, m := range metas {
			p, ok := e.siteOf(m.Master().Site).Partition(m.ID)
			if !ok {
				t.Fatalf("partition %d has no master copy after recovery", m.ID)
			}
			same(fmt.Sprintf("partition %d rebuilt after site %d crashed", m.ID, site), p.ExtractAll(storage.Latest), m)
		}
	}
}

// TestInstallRacingFoldAndTruncate installs replicas while a writer
// commits to the partition and the maintenance tick folds and truncates
// with no retention slack, so a tick often runs while the copy loads the
// checkpoint it read. Every install must succeed and, caught up, read as
// the master does: the copy holds the log, so no record above its
// checkpoint is reclaimed before it is replayed.
func TestInstallRacingFoldAndTruncate(t *testing.T) {
	e, tbl := newSitedEngine(t, 2, 2000, func(c *Config) { c.RedoRetention = 0 })
	m := e.Dir.TablePartitions(tbl.ID)[0]
	for round := 0; round < 20; round++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			sess := e.NewSession()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				op := updateOp(tbl, (i*37)%2000, 2, types.NewFloat64(float64(round*100000)+float64(i)))
				if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{op}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.checkpointAndTruncate()
			}
		}()
		err := e.AddReplicaOp(m.ID, 1, storage.DefaultRowLayout())
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: install: %v", round, err)
		}
		mp, _ := e.siteOf(0).Partition(m.ID)
		if _, err := e.siteOf(1).Repl.CatchUp(m.ID, mp.Version()); err != nil {
			t.Fatal(err)
		}
		rp, _ := e.siteOf(1).Partition(m.ID)
		want, got := mp.Image(storage.Latest).Rows(), rp.Image(storage.Latest).Rows()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: replica at version %d differs from the master at %d", round, rp.Version(), mp.Version())
		}
		if err := e.RemoveReplicaOp(m.ID, 1); err != nil {
			t.Fatal(err)
		}
	}
}
