package redolog

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"proteus/internal/disksim"
	"proteus/internal/obs"
	"proteus/internal/partition"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

var foldKinds = []types.Kind{types.KindInt64, types.KindString, types.KindFloat64}

// oraclePartition is the reference the fold is held to: a real row-store
// partition that the same records are replayed into.
func oraclePartition(pid partition.ID, rows schema.RowID) *partition.Partition {
	f := partition.Factory{Dev: disksim.New(disksim.Config{})}
	b := partition.Bounds{RowStart: 0, RowEnd: rows, ColStart: 0, ColEnd: schema.ColID(len(foldKinds))}
	return partition.New(pid, b, foldKinds, storage.DefaultRowLayout(), f)
}

// replay is ReplayInto's loop with Apply's error ignored: the fold has to
// match what a partition holds after a record it rejects half-way, too.
func replay(p *partition.Partition, rec Record) {
	if rec.Version <= p.Version() {
		return
	}
	_ = Apply(p, rec)
}

func randVals(rng *rand.Rand) []types.Value {
	return []types.Value{
		types.NewInt64(rng.Int63n(1000)),
		types.NewString(fmt.Sprintf("s%d", rng.Intn(1000))),
		types.NewFloat64(float64(rng.Intn(1000)) / 4),
	}
}

// randRecord draws 1–4 entries over a small id space, blind to which rows
// exist: duplicate inserts, updates and deletes of missing or just-deleted
// rows, and insert–update–delete chains inside one record all occur.
func randRecord(rng *rand.Rand, pid partition.ID, ver uint64, ids int) Record {
	rec := Record{Partition: pid, Version: ver}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		e := Entry{Row: schema.RowID(rng.Intn(ids))}
		switch r := rng.Intn(10); {
		case r < 4:
			e.Op, e.Vals = OpInsert, randVals(rng)
		case r < 8:
			e.Op = OpUpdate
			all := randVals(rng)
			for c := range all {
				if rng.Intn(2) == 0 {
					e.Cols = append(e.Cols, schema.ColID(c))
					e.Vals = append(e.Vals, all[c])
				}
			}
		default:
			e.Op = OpDelete
		}
		rec.Entries = append(rec.Entries, e)
	}
	return rec
}

func sameImage(t *testing.T, ctx string, got Checkpoint, p *partition.Partition) {
	t.Helper()
	want := p.ExtractAll(storage.Latest)
	if got.Version != p.Version() {
		t.Errorf("%s: image version %d, partition %d", ctx, got.Version, p.Version())
	}
	if len(got.Rows) != len(want) {
		t.Fatalf("%s: image has %d rows, partition %d", ctx, len(got.Rows), len(want))
	}
	for i := range want {
		if got.Rows[i].ID != want[i].ID {
			t.Fatalf("%s: row %d is id %d, partition has id %d", ctx, i, got.Rows[i].ID, want[i].ID)
		}
		for c := range want[i].Vals {
			if got.Rows[i].Vals[c] != want[i].Vals[c] {
				t.Fatalf("%s: row id %d col %d = %v, partition has %v", ctx, want[i].ID, c, got.Rows[i].Vals[c], want[i].Vals[c])
			}
		}
	}
}

// TestFoldMatchesReplayedPartition: over seeded random histories the folded
// image equals, row for row, the extract of a partition the same records
// were replayed into — with folds at random points and tail lengths, stale
// records, base images replaced mid-history (as a bulk load does), log
// truncation below the image, and topics that start with no image at all.
func TestFoldMatchesReplayedPartition(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const pid = partition.ID(7)
		ids := 8 + rng.Intn(120)
		b := NewBroker()
		b.SetObs(obs.NewRegistry())
		b.CreateTopic(pid)
		p := oraclePartition(pid, schema.RowID(ids))
		ver := uint64(0)

		saveBase := func() {
			b.SaveCheckpoint(pid, Checkpoint{
				Rows: p.ExtractAll(storage.Latest), Version: p.Version(), Offset: b.EndOffset(pid),
			})
		}
		if seed%2 == 0 { // otherwise: never checkpointed, folds from empty
			var base []schema.Row
			for id := 0; id < ids; id++ {
				if rng.Intn(3) > 0 {
					base = append(base, schema.Row{ID: schema.RowID(id), Vals: randVals(rng)})
				}
			}
			ver = 1
			if err := p.Load(base, ver); err != nil {
				t.Fatal(err)
			}
			saveBase()
		}

		folds := 0
		for step := 0; step < 600; step++ {
			ver++
			rv := ver
			if rng.Intn(25) == 0 && ver > 3 {
				rv = ver - uint64(1+rng.Intn(3)) // a record the image already reflects
				ver--
			}
			rec := randRecord(rng, pid, rv, ids)
			b.Append(rec)
			replay(p, rec)
			switch r := rng.Intn(100); {
			case r < 10:
				if b.FoldCheckpoint(pid, int64(1+rng.Intn(8))) > 0 {
					folds++
					ck, _ := b.Checkpoint(pid)
					if ck.Offset != b.EndOffset(pid) {
						t.Fatalf("seed %d: folded to offset %d, log ends at %d", seed, ck.Offset, b.EndOffset(pid))
					}
					sameImage(t, fmt.Sprintf("seed %d step %d", seed, step), ck, p)
				}
			case r < 12:
				saveBase()
			case r < 16:
				b.Truncate(pid, b.CheckpointOffset(pid)-int64(rng.Intn(4)))
			}
		}
		b.FoldCheckpoint(pid, 1)
		ck, ok := b.Checkpoint(pid)
		if !ok || folds == 0 {
			t.Fatalf("seed %d: checkpoint present %v after %d folds", seed, ok, folds)
		}
		sameImage(t, fmt.Sprintf("seed %d end", seed), ck, p)

		// Recovery from the folded image rebuilds the same partition.
		re := oraclePartition(pid, schema.RowID(ids))
		if err := re.Load(ck.Rows, ck.Version); err != nil {
			t.Fatalf("seed %d: load image: %v", seed, err)
		}
		sameImage(t, fmt.Sprintf("seed %d reload", seed), ck, re)
	}
}

// TestFoldCounters: folded records, rejected records and the image-rows
// gauge are exported, and the gauge follows replacement and deletion.
func TestFoldCounters(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBroker()
	b.SetObs(reg)
	b.CreateTopic(1)
	for i := uint64(1); i <= 5; i++ {
		b.Append(rec(1, i, schema.RowID(i)))
	}
	b.Append(rec(1, 6, 3)) // duplicate insert: rejected, counted
	if n := b.FoldCheckpoint(1, 7); n != 0 {
		t.Fatalf("folded %d records below the minimum tail", n)
	}
	if n := b.FoldCheckpoint(1, 6); n != 6 {
		t.Fatalf("folded %d records, want 6", n)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["redolog.checkpoint_folded_records"]; got != 6 {
		t.Errorf("folded_records = %d, want 6", got)
	}
	if got := snap.Counters["redolog.checkpoint_fold_rejected"]; got != 1 {
		t.Errorf("fold_rejected = %d, want 1", got)
	}
	if got := snap.Counters["redolog.checkpoints"]; got != 1 {
		t.Errorf("checkpoints = %d, want 1", got)
	}
	if got := snap.Gauges["redolog.checkpoint_image_rows"]; got != 5 {
		t.Errorf("image_rows = %d, want 5", got)
	}
	if ck, _ := b.Checkpoint(1); ck.Version != 5 || ck.Offset != 6 {
		t.Errorf("image at version %d offset %d, want 5 and 6", ck.Version, ck.Offset)
	}
	b.SaveCheckpoint(1, Checkpoint{Rows: []schema.Row{{ID: 9, Vals: []types.Value{types.NewInt64(9)}}}, Version: 9, Offset: 6})
	if got := reg.Snapshot().Gauges["redolog.checkpoint_image_rows"]; got != 1 {
		t.Errorf("image_rows after replacement = %d, want 1", got)
	}
	b.DeleteTopic(1)
	if got := reg.Snapshot().Gauges["redolog.checkpoint_image_rows"]; got != 0 {
		t.Errorf("image_rows after delete = %d, want 0", got)
	}
	if n := b.FoldCheckpoint(1, 1); n != 0 {
		t.Errorf("fold on a deleted topic folded %d records", n)
	}
}

// TestFoldRefusesAcrossTruncatedGap: when records above the image (or, for
// a topic without one, above offset 0) are already reclaimed, a fold would
// skip their effects; it must leave the image alone instead.
func TestFoldRefusesAcrossTruncatedGap(t *testing.T) {
	b := NewBroker()
	for i := uint64(1); i <= 10; i++ {
		b.Append(rec(1, i, schema.RowID(i)))
		b.Append(rec(2, i, schema.RowID(i)))
	}
	b.Truncate(1, 4)
	if n := b.FoldCheckpoint(1, 1); n != 0 {
		t.Errorf("topic without image, base 4: folded %d records", n)
	}
	if _, ok := b.Checkpoint(1); ok {
		t.Error("fold across a gap created an image")
	}
	b.FoldCheckpoint(2, 1)
	b.SaveCheckpoint(2, Checkpoint{Version: 2, Offset: 2}) // an image older than the base
	b.Truncate(2, 5)
	if n := b.FoldCheckpoint(2, 1); n != 0 {
		t.Errorf("image at offset 2, base 5: folded %d records", n)
	}
	if ck, _ := b.Checkpoint(2); ck.Offset != 2 || len(ck.Rows) != 0 {
		t.Errorf("image moved to offset %d with %d rows", ck.Offset, len(ck.Rows))
	}
}

// TestCheckpointReadersKeepTheirImage: SaveCheckpoint orders a base image by
// row id whatever order the store extracted it in, and a reader's copy
// stays at its (Version, Offset) while later folds move rows in and out.
func TestCheckpointReadersKeepTheirImage(t *testing.T) {
	b := NewBroker()
	val := func(v int64) []types.Value { return []types.Value{types.NewInt64(v), types.NewString("x")} }
	b.SaveCheckpoint(1, Checkpoint{
		Rows:    []schema.Row{{ID: 30, Vals: val(30)}, {ID: 10, Vals: val(10)}, {ID: 20, Vals: val(20)}},
		Version: 1,
	})
	before, _ := b.Checkpoint(1)
	if before.Rows[0].ID != 10 || before.Rows[1].ID != 20 || before.Rows[2].ID != 30 {
		t.Fatalf("base image not ordered by id: %v", before.Rows)
	}
	b.Append(Record{Partition: 1, Version: 2, Entries: []Entry{
		{Op: OpDelete, Row: 10},
		{Op: OpUpdate, Row: 20, Cols: []schema.ColID{0}, Vals: []types.Value{types.NewInt64(-20)}},
		{Op: OpInsert, Row: 5, Vals: val(5)},
		{Op: OpInsert, Row: 25, Vals: val(25)},
	}})
	if b.FoldCheckpoint(1, 1) != 1 {
		t.Fatal("fold did not run")
	}
	if before.Version != 1 || before.Offset != 0 || len(before.Rows) != 3 ||
		before.Rows[0].ID != 10 || before.Rows[1].Vals[0].Int() != 20 {
		t.Errorf("reader's image changed under it: %+v", before)
	}
	after, _ := b.Checkpoint(1)
	var ids []schema.RowID
	for _, r := range after.Rows {
		ids = append(ids, r.ID)
	}
	if fmt.Sprint(ids) != "[5 20 25 30]" || after.Rows[1].Vals[0].Int() != -20 || after.Version != 2 || after.Offset != 1 {
		t.Errorf("folded image: ids %v, row 20 = %v, version %d, offset %d", ids, after.Rows[1].Vals, after.Version, after.Offset)
	}
}

// TestTruncateReslices: offsets stay stable and the retained records are
// untouched, the dropped slots of the backing array no longer reach their
// entries, and the array is replaced only once it is mostly slack.
func TestTruncateReslices(t *testing.T) {
	b := NewBroker()
	tp := b.topic(1)
	tp.records = make([]Record, 0, 128)
	for i := uint64(1); i <= 100; i++ {
		b.Append(rec(1, i, schema.RowID(i)))
	}
	array := tp.records
	if got := b.Truncate(1, 30); got != 30 {
		t.Fatalf("reclaimed %d, want 30", got)
	}
	for i := 0; i < 30; i++ {
		if array[i].Entries != nil || array[i].Version != 0 {
			t.Fatalf("dropped slot %d still holds %+v", i, array[i])
		}
	}
	if &tp.records[0] != &array[30] {
		t.Error("truncating 30 of 100 records moved the retained tail")
	}
	recs, next := b.Poll(1, 0, 0)
	if len(recs) != 70 || next != 100 || recs[0].Version != 31 || recs[69].Version != 100 {
		t.Fatalf("retained: %d records, next %d, versions %d..%d", len(recs), next, recs[0].Version, recs[len(recs)-1].Version)
	}
	for i, r := range recs {
		if r.Entries[0].Row != schema.RowID(31+i) {
			t.Fatalf("retained record %d holds row %d", i, r.Entries[0].Row)
		}
	}
	b.Truncate(1, 90) // 10 retained in a tail of capacity >= 70: shrink
	if c := cap(tp.records); c != 10 {
		t.Errorf("capacity after dropping to 10 records = %d, want 10", c)
	}
	if off := b.Append(rec(1, 101, 101)); off != 100 {
		t.Errorf("append after truncation at offset %d, want 100", off)
	}
	recs, _ = b.Poll(1, 95, 0)
	if len(recs) != 6 || recs[0].Version != 96 || recs[5].Version != 101 {
		t.Errorf("poll after shrink: %d records from version %d", len(recs), recs[0].Version)
	}
}

// TestFoldConcurrentWithLog runs folds against everything that shares a
// topic with them — batch appends, polls, truncation, image readers and a
// base image replaced underneath (under -race in CI). Versions only grow,
// so every image a reader sees must be internally consistent: ordered by
// id, and row i holding the version that last wrote it, never a later one
// than the image claims.
func TestFoldConcurrentWithLog(t *testing.T) {
	const (
		pid     = partition.ID(3)
		rows    = 64
		batches = 400
	)
	b := NewBroker()
	b.SetObs(obs.NewRegistry())
	base := func(ver uint64) Checkpoint {
		img := make([]schema.Row, rows)
		for i := range img {
			img[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{types.NewInt64(int64(ver))}}
		}
		return Checkpoint{Rows: img, Version: ver, Offset: b.EndOffset(pid)}
	}
	b.SaveCheckpoint(pid, base(0))

	var wg sync.WaitGroup
	done := make(chan struct{})
	background := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					fn()
				}
			}
		}()
	}
	background(func() { b.FoldCheckpoint(pid, 4) })
	background(func() { b.Poll(pid, b.BaseOffset(pid), 16) })
	background(func() { b.Truncate(pid, b.CheckpointOffset(pid)-2) })
	background(func() {
		ck, ok := b.Checkpoint(pid)
		if !ok {
			t.Error("image disappeared")
			return
		}
		for i, r := range ck.Rows {
			if r.ID != schema.RowID(i) {
				t.Errorf("image row %d has id %d", i, r.ID)
				return
			}
			if v := uint64(r.Vals[0].Int()); v > ck.Version {
				t.Errorf("image at version %d holds row %d written at version %d", ck.Version, i, v)
				return
			}
		}
	})

	// The appender is the only writer of versions, as a master is; every so
	// often it replaces the base image the way a bulk load does.
	ver := uint64(0)
	for n := 0; n < batches; n++ {
		batch := make([]Record, 1+n%5)
		for i := range batch {
			ver++
			batch[i] = Record{Partition: pid, Version: ver, Entries: []Entry{{
				Op: OpUpdate, Row: schema.RowID(ver % rows), Cols: []schema.ColID{0},
				Vals: []types.Value{types.NewInt64(int64(ver))},
			}}}
		}
		b.AppendBatch(batch)
		if n%97 == 96 {
			b.SaveCheckpoint(pid, base(ver))
		}
	}
	close(done)
	wg.Wait()

	b.FoldCheckpoint(pid, 1)
	ck, _ := b.Checkpoint(pid)
	if ck.Version != ver || ck.Offset != b.EndOffset(pid) {
		t.Errorf("final image at version %d offset %d, log at %d / %d", ck.Version, ck.Offset, ver, b.EndOffset(pid))
	}
}

// BenchmarkCheckpointFold measures one folded record (two single-cell
// updates of random rows, the oltp-rmw shape) against images of growing
// size: the cost must follow the change, not the image. Ids are dense, as a
// loaded table's are; the stride-7 case shows the binary-search fallback.
func BenchmarkCheckpointFold(b *testing.B) {
	for _, c := range []struct{ rows, stride int }{{1e3, 1}, {1e4, 1}, {1e5, 1}, {1e5, 7}} {
		name := fmt.Sprintf("rows=%d", c.rows)
		if c.stride > 1 {
			name += "/sparse"
		}
		b.Run(name, func(b *testing.B) { benchFold(b, c.rows, c.stride) })
	}
}

func benchFold(b *testing.B, rows, stride int) {
	const (
		pid  = partition.ID(1)
		cols = 11
		tail = 256 // records per fold, the engine's default trigger
	)
	br := NewBroker()
	img := make([]schema.Row, rows)
	for i := range img {
		vals := make([]types.Value, cols)
		for c := range vals {
			vals[c] = types.NewString("0123456789abcdef")
		}
		img[i] = schema.Row{ID: schema.RowID(i * stride), Vals: vals}
	}
	br.SaveCheckpoint(pid, Checkpoint{Rows: img, Version: 1})
	rng := rand.New(rand.NewSource(1))
	update := func() Entry {
		return Entry{
			Op: OpUpdate, Row: schema.RowID(rng.Intn(rows) * stride),
			Cols: []schema.ColID{schema.ColID(1 + rng.Intn(cols-1))},
			Vals: []types.Value{types.NewString("fedcba9876543210")},
		}
	}
	recs := make([]Record, tail)
	ver := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += tail {
		b.StopTimer()
		for i := range recs {
			ver++
			recs[i] = Record{Partition: pid, Version: ver, Entries: []Entry{update(), update()}}
		}
		br.AppendBatch(recs)
		b.StartTimer()
		if br.FoldCheckpoint(pid, tail) != tail {
			b.Fatal("fold did not run")
		}
		br.Truncate(pid, br.CheckpointOffset(pid))
	}
}
