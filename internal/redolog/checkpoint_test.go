package redolog

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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

// imageOf builds a column-major image from rows, each column taking the
// kind of its first non-NULL value.
func imageOf(rows []schema.Row, version uint64, offset int64) Checkpoint {
	ck := Checkpoint{Version: version, Offset: offset}
	for _, r := range rows {
		if ck.Cols == nil {
			ck.Cols = make([]storage.Vec, len(r.Vals))
		}
		ck.IDs = append(ck.IDs, r.ID)
		for c, v := range r.Vals {
			ck.Cols[c].Append(v)
		}
	}
	return ck
}

// rowImage is a checkpoint boxed to rows ordered by id.
type rowImage struct {
	Rows    []schema.Row
	Version uint64
	Offset  int64
}

// checkpointRows boxes the broker's checkpoint of pid.
func checkpointRows(b *Broker, pid partition.ID) (rowImage, bool) {
	ck, ok := b.Checkpoint(pid)
	return rowImage{Rows: ck.Rows(), Version: ck.Version, Offset: ck.Offset}, ok
}

// extractRows is the oracle images are held to: every live row of p, boxed
// cell by cell from its batch scan and ordered by id.
func extractRows(p *partition.Partition) []schema.Row {
	cols := make([]schema.ColID, len(p.Kinds()))
	for i := range cols {
		cols[i] = schema.ColID(i)
	}
	var out []schema.Row
	p.ScanBatches(cols, nil, storage.Latest, 0, func(b *storage.Batch) bool {
		b.Selected(func(row int) bool {
			out = append(out, schema.Row{ID: b.RowIDs[row], Vals: b.Row(row, nil)})
			return true
		})
		return true
	})
	slices.SortFunc(out, func(a, b schema.Row) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

func sameImage(t *testing.T, ctx string, got rowImage, p *partition.Partition) {
	t.Helper()
	want := extractRows(p)
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
		b.CreateTopic(pid, foldKinds...)
		p := oraclePartition(pid, schema.RowID(ids))
		ver := uint64(0)

		saveBase := func() {
			b.SaveCheckpoint(pid, CheckpointOf(p, b.EndOffset(pid)))
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
					ck, _ := checkpointRows(b, pid)
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
		ck, ok := checkpointRows(b, pid)
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
// and image-bytes gauges are exported, and the gauges follow a fold,
// replacement and deletion.
func TestFoldCounters(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBroker()
	b.SetObs(reg)
	b.CreateTopic(1, recKinds...)
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
	if ck, _ := checkpointRows(b, 1); ck.Version != 5 || ck.Offset != 6 {
		t.Errorf("image at version %d offset %d, want 5 and 6", ck.Version, ck.Offset)
	}
	// Five rows of (Int64, "x"): an id and an int cell of 8 bytes each, a
	// 16-byte string header and one byte of payload.
	bytes := func() int64 { return reg.Snapshot().Gauges["redolog.checkpoint_image_bytes"] }
	if got := bytes(); got != 5*(8+8+16+1) {
		t.Errorf("image_bytes = %d, want %d", got, 5*(8+8+16+1))
	}
	b.Append(Record{Partition: 1, Version: 7, Entries: []Entry{
		{Op: OpUpdate, Row: 1, Cols: []schema.ColID{1}, Vals: []types.Value{types.NewString("xyz")}}, // +2
		{Op: OpDelete, Row: 2}, // -33
		{Op: OpUpdate, Row: 3, Cols: []schema.ColID{0}, Vals: []types.Value{types.Null()}}, // +4 NULL flags
	}})
	if n := b.FoldCheckpoint(1, 1); n != 1 {
		t.Fatalf("folded %d records, want 1", n)
	}
	if got, want := bytes(), int64(5*33+2-33+4); got != want {
		t.Errorf("image_bytes after a fold = %d, want %d", got, want)
	}
	b.SaveCheckpoint(1, imageOf([]schema.Row{{ID: 9, Vals: []types.Value{types.NewInt64(9)}}}, 9, 7))
	if got := reg.Snapshot().Gauges["redolog.checkpoint_image_rows"]; got != 1 {
		t.Errorf("image_rows after replacement = %d, want 1", got)
	}
	if got := bytes(); got != 16 {
		t.Errorf("image_bytes after replacement = %d, want 16", got)
	}
	b.DeleteTopic(1)
	if got := reg.Snapshot().Gauges["redolog.checkpoint_image_rows"]; got != 0 {
		t.Errorf("image_rows after delete = %d, want 0", got)
	}
	if got := bytes(); got != 0 {
		t.Errorf("image_bytes after delete = %d, want 0", got)
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
	b.CreateTopic(1, recKinds...)
	b.CreateTopic(2, recKinds...)
	for i := uint64(1); i <= 10; i++ {
		b.Append(rec(1, i, schema.RowID(i)))
		b.Append(rec(2, i, schema.RowID(i)))
	}
	b.Truncate(1, 4)
	if n := b.FoldCheckpoint(1, 1); n != 0 {
		t.Errorf("topic without image, base 4: folded %d records", n)
	}
	if _, ok := checkpointRows(b, 1); ok {
		t.Error("fold across a gap created an image")
	}
	b.FoldCheckpoint(2, 1)
	b.SaveCheckpoint(2, Checkpoint{Version: 2, Offset: 2}) // an image older than the base
	b.Truncate(2, 5)
	if n := b.FoldCheckpoint(2, 1); n != 0 {
		t.Errorf("image at offset 2, base 5: folded %d records", n)
	}
	if ck, _ := checkpointRows(b, 2); ck.Offset != 2 || len(ck.Rows) != 0 {
		t.Errorf("image moved to offset %d with %d rows", ck.Offset, len(ck.Rows))
	}
}

// TestCheckpointReadersKeepTheirImage: SaveCheckpoint orders a base image by
// row id whatever order the store extracted it in, and a reader's copy
// stays at its (Version, Offset) while later folds move rows in and out.
func TestCheckpointReadersKeepTheirImage(t *testing.T) {
	b := NewBroker()
	val := func(v int64) []types.Value { return []types.Value{types.NewInt64(v), types.NewString("x")} }
	b.SaveCheckpoint(1, imageOf([]schema.Row{{ID: 30, Vals: val(30)}, {ID: 10, Vals: val(10)}, {ID: 20, Vals: val(20)}}, 1, 0))
	before, _ := checkpointRows(b, 1)
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
	after, _ := checkpointRows(b, 1)
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
		return imageOf(img, ver, b.EndOffset(pid))
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
		ck, ok := checkpointRows(b, pid)
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
	ck, _ := checkpointRows(b, pid)
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
	br.SaveCheckpoint(pid, imageOf(img, 1, 0))
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

// TestCheckpointFoldAllocBudget: folding 256 records of two fixed-width
// single-cell updates (the oltp-rmw shape) into a 10⁴-row image writes
// the cells in place, so a fold allocates a fixed number of times however
// many records it applies. Each measured round also appends the records
// (one allocation: the truncated log starts from an empty array) and
// truncates them again.
func TestCheckpointFoldAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		pid  = partition.ID(1)
		rows = 10_000
		tail = 256
		// Measured 3 per round — the log's array, the fold's copy of the
		// tail's record headers and the advanced image's header — + 10 %.
		budget = 3.3
	)
	kinds := []types.Kind{types.KindInt64, types.KindFloat64, types.KindTime, types.KindInt64}
	br := NewBroker()
	br.SetObs(obs.NewRegistry())
	br.CreateTopic(pid, kinds...)
	img := make([]schema.Row, rows)
	for i := range img {
		img[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(int64(i)), types.NewFloat64(float64(i)), types.NewTimeMicros(int64(i)), types.NewInt64(0),
		}}
	}
	br.SaveCheckpoint(pid, imageOf(img, 1, 0))
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, tail)
	for i := range recs {
		recs[i] = Record{Partition: pid, Entries: []Entry{
			{Op: OpUpdate, Row: schema.RowID(rng.Intn(rows)), Cols: []schema.ColID{1}, Vals: []types.Value{types.NewFloat64(-1)}},
			{Op: OpUpdate, Row: schema.RowID(rng.Intn(rows)), Cols: []schema.ColID{3}, Vals: []types.Value{types.NewInt64(7)}},
		}}
	}
	ver := uint64(1)
	got := testing.AllocsPerRun(20, func() {
		for i := range recs {
			ver++
			recs[i].Version = ver
		}
		br.AppendBatch(recs)
		if br.FoldCheckpoint(pid, tail) != tail {
			t.Fatal("fold did not run")
		}
		br.Truncate(pid, br.CheckpointOffset(pid))
	})
	if got > budget {
		t.Errorf("%.1f allocations per %d-record fold, budget %.1f", got, tail, budget)
	}
	if ck, _ := checkpointRows(br, pid); ck.Version != ver || len(ck.Rows) != rows {
		t.Errorf("image at version %d with %d rows, want %d and %d", ck.Version, len(ck.Rows), ver, rows)
	}
}

var nullKinds = []types.Kind{types.KindInt64, types.KindFloat64, types.KindString, types.KindTime, types.KindBool}

// nullVals draws a row over nullKinds with each cell NULL one time in four.
func nullVals(rng *rand.Rand) []types.Value {
	v := []types.Value{
		types.NewInt64(rng.Int63n(100)), types.NewFloat64(float64(rng.Intn(100)) / 4),
		types.NewString(fmt.Sprintf("s%d", rng.Intn(100))), types.NewTimeMicros(rng.Int63n(1e9)), types.NewBool(rng.Intn(2) == 0),
	}
	for c := range v {
		if rng.Intn(4) == 0 {
			v[c] = types.Null()
		}
	}
	return v
}

// checkColumns holds the folded image to its shape: ascending ids, every
// column of its kind and as long as the id list, Null present exactly when
// the column holds a NULL, and the bytes gauge equal to a recount.
func checkColumns(t *testing.T, ctx string, b *Broker, pid partition.ID, kinds []types.Kind, reg *obs.Registry) {
	t.Helper()
	tp := b.lookup(pid)
	tp.ckMu.Lock()
	defer tp.ckMu.Unlock()
	ck := tp.ckpt
	if !slices.IsSorted(ck.IDs) {
		t.Fatalf("%s: ids out of order: %v", ctx, ck.IDs)
	}
	recount := 8 * int64(len(ck.IDs))
	for c := range ck.Cols {
		v := &ck.Cols[c]
		if v.Kind != kinds[c] {
			t.Fatalf("%s: column %d has kind %v, want %v", ctx, c, v.Kind, kinds[c])
		}
		if v.Enc != storage.EncNone || v.Len() != len(ck.IDs) {
			t.Fatalf("%s: column %d encoded %v with %d cells for %d rows", ctx, c, v.Enc, v.Len(), len(ck.IDs))
		}
		if (v.Null != nil) != slices.Contains(v.Null, true) {
			t.Fatalf("%s: column %d keeps a Null of %d flags and no NULL", ctx, c, len(v.Null))
		}
		recount += 8*int64(len(v.I64)+len(v.F64)) + int64(len(v.Null))
		for _, s := range v.Str {
			recount += 16 + int64(len(s))
		}
	}
	if got := reg.Snapshot().Gauges["redolog.checkpoint_image_bytes"]; got != recount {
		t.Fatalf("%s: image_bytes gauge %d, image holds %d", ctx, got, recount)
	}
}

// TestFoldKeepsNullsTyped: over seeded random histories whose cells are
// often NULL, in every kind a column can have, the folded image equals a
// replayed column-store partition (which keeps NULLs, where a row store
// reads them back as zero) cell for cell and keeps its typed shape. Base
// images are taken mid-history too, from plain, value-sorted and
// run-length-compressed column stores with a pending delta.
func TestFoldKeepsNullsTyped(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const pid = partition.ID(3)
		ids := 8 + rng.Intn(60)
		reg := obs.NewRegistry()
		b := NewBroker()
		b.SetObs(reg)
		b.CreateTopic(pid, nullKinds...)
		f := partition.Factory{Dev: disksim.New(disksim.Config{})}
		bounds := partition.Bounds{RowEnd: schema.RowID(ids), ColEnd: schema.ColID(len(nullKinds))}
		layout := []storage.Layout{
			storage.DefaultColumnLayout(),
			{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 0},
			{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 4, Compressed: true},
		}[seed%3]
		p := partition.New(pid, bounds, nullKinds, layout, f)
		if seed%2 == 0 {
			var base []schema.Row
			for id := 0; id < ids; id += 1 + rng.Intn(3) {
				base = append(base, schema.Row{ID: schema.RowID(id), Vals: nullVals(rng)})
			}
			if err := p.Load(base, 1); err != nil {
				t.Fatal(err)
			}
			b.SaveCheckpoint(pid, CheckpointOf(p, 0))
		}
		for step := 0; step < 300; step++ {
			rec := Record{Partition: pid, Version: p.Version() + 1}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				e := Entry{Row: schema.RowID(rng.Intn(ids))}
				switch r := rng.Intn(10); {
				case r < 4:
					e.Op, e.Vals = OpInsert, nullVals(rng)
				case r < 8:
					e.Op = OpUpdate
					all := nullVals(rng)
					for _, c := range rng.Perm(len(all))[:1+rng.Intn(2)] {
						e.Cols = append(e.Cols, schema.ColID(c))
						e.Vals = append(e.Vals, all[c])
					}
				default:
					e.Op = OpDelete
				}
				rec.Entries = append(rec.Entries, e)
			}
			b.Append(rec)
			replay(p, rec)
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			switch r := rng.Intn(16); {
			case r < 2 && b.FoldCheckpoint(pid, 1) > 0:
			case r == 2:
				b.SaveCheckpoint(pid, CheckpointOf(p, b.EndOffset(pid)))
			default:
				continue
			}
			ck, _ := checkpointRows(b, pid)
			sameImage(t, ctx, ck, p)
			checkColumns(t, ctx, b, pid, nullKinds, reg)
		}
	}
}

// TestCheckpointOfMatchesExtract: a base image taken from a partition's
// batch scan decodes to exactly the partition's extract — on row and
// column stores, in memory and on disk, value-sorted (rows arrive out of
// id order), run-length, dictionary and frame-of-reference encoded
// (low-cardinality, NULL-free columns), with NULLs, and with a pending
// delta of updates, deletes and out-of-order inserts.
func TestCheckpointOfMatchesExtract(t *testing.T) {
	layouts := []storage.Layout{
		storage.DefaultRowLayout(),
		{Format: storage.RowFormat, Tier: storage.DiskTier, SortBy: storage.NoSort},
		storage.DefaultColumnLayout(),
		{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 1},
		{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 2, Compressed: true},
		{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort, Compressed: true},
		{Format: storage.ColumnFormat, Tier: storage.DiskTier, SortBy: 3, Compressed: true},
	}
	const rows = 600
	for li, l := range layouts {
		for _, nulls := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(li)))
			f := partition.Factory{Dev: disksim.New(disksim.Config{})}
			bounds := partition.Bounds{RowEnd: 2 * rows, ColEnd: schema.ColID(len(nullKinds))}
			p := partition.New(1, bounds, nullKinds, l, f)
			lowCard := func(id int) []types.Value {
				v := []types.Value{
					types.NewInt64(int64(id / 50)), types.NewFloat64(float64(id % 3)),
					types.NewString(fmt.Sprintf("k%d", id%5)), types.NewTimeMicros(1e6 + int64(id%7)), types.NewBool(id%2 == 0),
				}
				if nulls && id%11 == 0 {
					v[id%len(v)] = types.Null()
				}
				return v
			}
			var base []schema.Row
			for id := 0; id < rows; id++ {
				base = append(base, schema.Row{ID: schema.RowID(id), Vals: lowCard(id)})
			}
			if err := p.Load(base, 1); err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("%v nulls=%v", l, nulls)
			same := func(stage string) {
				t.Helper()
				b := NewBroker()
				b.SaveCheckpoint(1, CheckpointOf(p, 0))
				ck, _ := checkpointRows(b, 1)
				sameImage(t, ctx+" "+stage, ck, p)
			}
			same("loaded")
			ver := uint64(1)
			for i := 0; i < 60; i++ {
				ver++
				id := schema.RowID(rng.Intn(rows))
				var err error
				switch i % 3 {
				case 0:
					err = p.Update(id, []schema.ColID{2}, []types.Value{types.NewString("upd")}, ver)
				case 1:
					err = p.Delete(id, ver)
				default:
					err = p.Insert(schema.Row{ID: schema.RowID(2*rows - 1 - i), Vals: lowCard(i)}, ver)
				}
				if err == nil {
					p.SetVersion(ver)
				}
			}
			same("with a delta")
		}
	}
}

// TestHeldTailSurvivesFoldAndTruncate: a copy built from the checkpoint
// holds the log before reading it, and however far folds and truncation
// run while the copy loads the image, the tail above it is still there to
// replay: the copy equals a partition every record was applied to. Without
// the hold the replay fails with ErrTruncated, where it once skipped the
// reclaimed records silently.
func TestHeldTailSurvivesFoldAndTruncate(t *testing.T) {
	const pid = partition.ID(5)
	f := partition.Factory{Dev: disksim.New(disksim.Config{})}
	newPart := func() *partition.Partition {
		b := partition.Bounds{RowStart: 0, RowEnd: 2000, ColStart: 0, ColEnd: schema.ColID(len(recKinds))}
		return partition.New(pid, b, recKinds, storage.DefaultRowLayout(), f)
	}
	b := NewBroker()
	b.CreateTopic(pid, recKinds...)
	oracle := newPart()
	ver := uint64(0)
	appendN := func(n int) {
		for ; n > 0; n-- {
			ver++
			r := rec(pid, ver, schema.RowID(ver))
			b.Append(r)
			if err := Apply(oracle, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(100)
	b.FoldCheckpoint(pid, 1)
	for _, hold := range []bool{true, false} {
		var h *Hold
		if hold {
			h = b.Hold(pid, 0)
		}
		ck, ok := b.Checkpoint(pid)
		if !ok {
			t.Fatal("no checkpoint")
		}
		cp := newPart()
		if err := cp.LoadImage(ck.Image, ck.Version); err != nil {
			t.Fatal(err)
		}
		// A maintenance tick meanwhile folds a long tail and truncates up
		// to the new checkpoint.
		appendN(300)
		b.FoldCheckpoint(pid, 1)
		b.Truncate(pid, b.CheckpointOffset(pid))
		_, next, err := b.ReplayInto(cp, pid, ck.Offset)
		if !hold {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("unheld replay from %d with the log starting at %d: err %v, want ErrTruncated", ck.Offset, b.BaseOffset(pid), err)
			}
			continue
		}
		if err != nil || next != b.EndOffset(pid) {
			t.Fatalf("held replay: next %d (end %d), err %v", next, b.EndOffset(pid), err)
		}
		if b.BaseOffset(pid) > ck.Offset {
			t.Fatalf("truncated to %d past the held checkpoint offset %d", b.BaseOffset(pid), ck.Offset)
		}
		sameImage(t, "held copy", rowImage{Rows: extractRows(cp), Version: cp.Version()}, oracle)
		// Released, the log truncates as far as it is asked.
		h.Release()
		if b.Truncate(pid, b.CheckpointOffset(pid)); b.BaseOffset(pid) != b.CheckpointOffset(pid) {
			t.Fatalf("after release the log starts at %d, want %d", b.BaseOffset(pid), b.CheckpointOffset(pid))
		}
	}
}
