package redolog

import (
	"testing"

	"proteus/internal/disksim"
	"proteus/internal/partition"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// recKinds are the column kinds of rec's rows.
var recKinds = []types.Kind{types.KindInt64, types.KindString}

func rec(pid partition.ID, ver uint64, id schema.RowID) Record {
	return Record{Partition: pid, Version: ver, Entries: []Entry{{
		Op: OpInsert, Row: id,
		Vals: []types.Value{types.NewInt64(int64(id)), types.NewString("x")},
	}}}
}

func TestAppendPoll(t *testing.T) {
	b := NewBroker()
	b.CreateTopic(1)
	if off := b.Append(rec(1, 1, 10)); off != 0 {
		t.Errorf("first offset = %d", off)
	}
	b.Append(rec(1, 2, 11))
	b.Append(rec(1, 3, 12))

	recs, next := b.Poll(1, 0, 2)
	if len(recs) != 2 || next != 2 {
		t.Fatalf("poll = %d records, next %d", len(recs), next)
	}
	if recs[0].Version != 1 || recs[1].Version != 2 {
		t.Errorf("versions: %v %v", recs[0].Version, recs[1].Version)
	}
	recs, next = b.Poll(1, next, 10)
	if len(recs) != 1 || next != 3 {
		t.Errorf("second poll = %d, next %d", len(recs), next)
	}
	recs, next = b.Poll(1, next, 10)
	if len(recs) != 0 || next != 3 {
		t.Errorf("empty poll = %d, next %d", len(recs), next)
	}
	if b.EndOffset(1) != 3 {
		t.Errorf("end = %d", b.EndOffset(1))
	}
}

func TestPollUnboundedMax(t *testing.T) {
	b := NewBroker()
	for i := uint64(1); i <= 5; i++ {
		b.Append(rec(2, i, schema.RowID(i)))
	}
	recs, _ := b.Poll(2, 0, 0) // 0 = all
	if len(recs) != 5 {
		t.Errorf("poll all = %d", len(recs))
	}
}

func TestTopicsIndependent(t *testing.T) {
	b := NewBroker()
	b.Append(rec(1, 1, 1))
	b.Append(rec(2, 1, 2))
	if b.EndOffset(1) != 1 || b.EndOffset(2) != 1 {
		t.Error("topics shared records")
	}
	b.DeleteTopic(1)
	if b.EndOffset(1) != 0 {
		t.Error("deleted topic kept records")
	}
}

// TestReadsDoNotResurrectDeletedTopics: once a split or merge deletes a
// topic, every reader — the maintenance tick's checkpoint and truncation
// calls, a replica's poll, recovery's checkpoint read — sees an empty log
// and leaves no topic behind for Topics to list forever.
func TestReadsDoNotResurrectDeletedTopics(t *testing.T) {
	b := NewBroker()
	for v := uint64(1); v <= 4; v++ {
		b.Append(rec(1, v, schema.RowID(v)))
		b.Append(rec(2, v, schema.RowID(v)))
	}
	b.SaveCheckpoint(1, Checkpoint{Version: 2, Offset: 2})
	b.DeleteTopic(1)

	if n := b.CheckpointOffset(1); n != 0 {
		t.Errorf("CheckpointOffset = %d", n)
	}
	if n := b.Truncate(1, 3); n != 0 {
		t.Errorf("Truncate = %d", n)
	}
	if _, ok := b.Checkpoint(1); ok {
		t.Error("Checkpoint found an image")
	}
	if n := b.FoldCheckpoint(1, 1); n != 0 {
		t.Errorf("FoldCheckpoint = %d", n)
	}
	if recs, next := b.Poll(1, 0, 10); len(recs) != 0 || next != 0 {
		t.Errorf("Poll = %d records, next %d", len(recs), next)
	}
	if n := b.EndOffset(1); n != 0 {
		t.Errorf("EndOffset = %d", n)
	}
	if n := b.BaseOffset(1); n != 0 {
		t.Errorf("BaseOffset = %d", n)
	}
	if n := b.Retained(1); n != 0 {
		t.Errorf("Retained = %d", n)
	}
	if topics := b.Topics(); len(topics) != 1 || topics[0] != 2 {
		t.Errorf("Topics = %v, want only the live topic 2", topics)
	}
	// A writer still creates the topic.
	b.Append(rec(1, 5, 5))
	if len(b.Topics()) != 2 || b.EndOffset(1) != 1 {
		t.Errorf("append after delete: topics %v, end %d", b.Topics(), b.EndOffset(1))
	}
}

func TestApplyReplaysIntoPartition(t *testing.T) {
	f := partition.Factory{Dev: disksim.New(disksim.Config{})}
	kinds := []types.Kind{types.KindInt64, types.KindString}
	bnds := partition.Bounds{Table: 0, RowStart: 0, RowEnd: 100, ColStart: 0, ColEnd: 2}
	p := partition.New(1, bnds, kinds, storage.DefaultRowLayout(), f)

	b := NewBroker()
	b.Append(rec(1, 1, 10))
	b.Append(Record{Partition: 1, Version: 2, Entries: []Entry{{
		Op: OpUpdate, Row: 10, Cols: []schema.ColID{1}, Vals: []types.Value{types.NewString("updated")},
	}}})
	b.Append(Record{Partition: 1, Version: 3, Entries: []Entry{{Op: OpDelete, Row: 10}}})
	b.Append(rec(1, 4, 20))

	recs, _ := b.Poll(1, 0, 0)
	for _, r := range recs {
		if err := Apply(p, r); err != nil {
			t.Fatal(err)
		}
	}
	if p.Version() != 4 {
		t.Errorf("version = %d", p.Version())
	}
	if _, ok := p.Get(10, []schema.ColID{0}, storage.Latest); ok {
		t.Error("deleted row visible after replay")
	}
	r, ok := p.Get(20, []schema.ColID{0, 1}, storage.Latest)
	if !ok || r.Vals[0].Int() != 20 {
		t.Errorf("replayed row: %v %v", r, ok)
	}
	// Mid-replay snapshot correctness: version 2 had the update visible.
	r2, ok := p.Get(10, []schema.ColID{1}, 2)
	if !ok || r2.Vals[0].Str() != "updated" {
		t.Errorf("snapshot 2: %v %v", r2, ok)
	}
}

func TestApplyErrorPropagates(t *testing.T) {
	f := partition.Factory{Dev: disksim.New(disksim.Config{})}
	kinds := []types.Kind{types.KindInt64, types.KindString}
	bnds := partition.Bounds{RowStart: 0, RowEnd: 100, ColStart: 0, ColEnd: 2}
	p := partition.New(1, bnds, kinds, storage.DefaultRowLayout(), f)
	// Update of a missing row fails.
	err := Apply(p, Record{Partition: 1, Version: 1, Entries: []Entry{{
		Op: OpUpdate, Row: 5, Cols: []schema.ColID{0}, Vals: []types.Value{types.NewInt64(0)},
	}}})
	if err == nil {
		t.Error("expected apply error")
	}
}

func TestTruncateKeepsOffsetsStable(t *testing.T) {
	b := NewBroker()
	for i := uint64(1); i <= 10; i++ {
		b.Append(rec(3, i, schema.RowID(i)))
	}
	if got := b.Truncate(3, 4); got != 4 {
		t.Fatalf("reclaimed = %d, want 4", got)
	}
	if b.BaseOffset(3) != 4 || b.EndOffset(3) != 10 || b.Retained(3) != 6 {
		t.Fatalf("base=%d end=%d retained=%d", b.BaseOffset(3), b.EndOffset(3), b.Retained(3))
	}

	// Polling from a retained offset sees the same records as before.
	recs, next := b.Poll(3, 6, 2)
	if len(recs) != 2 || next != 8 {
		t.Fatalf("poll = %d records, next %d", len(recs), next)
	}
	if recs[0].Version != 7 || recs[1].Version != 8 {
		t.Errorf("versions after truncate: %v %v", recs[0].Version, recs[1].Version)
	}

	// Polling below the base resumes from the log-start offset.
	recs, next = b.Poll(3, 0, 0)
	if len(recs) != 6 || next != 10 {
		t.Fatalf("below-base poll = %d records, next %d", len(recs), next)
	}
	if recs[0].Version != 5 {
		t.Errorf("oldest retained version = %v, want 5", recs[0].Version)
	}

	// Appends continue at stable offsets.
	if off := b.Append(rec(3, 11, 11)); off != 10 {
		t.Errorf("append after truncate offset = %d, want 10", off)
	}
}

func TestTruncateClampsAndNoops(t *testing.T) {
	b := NewBroker()
	for i := uint64(1); i <= 3; i++ {
		b.Append(rec(4, i, schema.RowID(i)))
	}
	if got := b.Truncate(4, 100); got != 3 {
		t.Errorf("over-end truncate reclaimed %d, want 3 (clamped)", got)
	}
	if b.BaseOffset(4) != 3 || b.EndOffset(4) != 3 {
		t.Errorf("base=%d end=%d after full truncate", b.BaseOffset(4), b.EndOffset(4))
	}
	if got := b.Truncate(4, 2); got != 0 {
		t.Errorf("below-base truncate reclaimed %d, want 0", got)
	}
	if got := b.Truncate(4, 3); got != 0 {
		t.Errorf("repeat truncate reclaimed %d, want 0", got)
	}
}

func TestAppendBatchMatchesSequentialAppend(t *testing.T) {
	// The same interleaved records, appended one by one and as a batch,
	// must produce identical per-topic logs and offsets.
	seq := NewBroker()
	bat := NewBroker()
	var recs []Record
	for i := uint64(1); i <= 6; i++ {
		recs = append(recs, rec(10, i, schema.RowID(i)))
		recs = append(recs, rec(11, i, schema.RowID(100+i)))
	}
	// Stable-sorted by partition, as a group-commit flush submits it.
	var byPid []Record
	for _, pid := range []partition.ID{10, 11} {
		for _, r := range recs {
			if r.Partition == pid {
				byPid = append(byPid, r)
			}
		}
	}
	for _, r := range recs {
		seq.Append(r)
	}
	bat.AppendBatch(byPid)

	for _, pid := range []partition.ID{10, 11} {
		if seq.EndOffset(pid) != bat.EndOffset(pid) {
			t.Errorf("pid %d end: seq %d, batch %d", pid, seq.EndOffset(pid), bat.EndOffset(pid))
		}
		sr, _ := seq.Poll(pid, 0, 0)
		br, _ := bat.Poll(pid, 0, 0)
		if len(sr) != len(br) {
			t.Fatalf("pid %d: seq %d records, batch %d", pid, len(sr), len(br))
		}
		for i := range sr {
			if sr[i].Version != br[i].Version || sr[i].Entries[0].Row != br[i].Entries[0].Row {
				t.Errorf("pid %d record %d: seq %+v, batch %+v", pid, i, sr[i], br[i])
			}
		}
	}
}

func TestAppendBatchEmptyAndSingle(t *testing.T) {
	b := NewBroker()
	b.AppendBatch(nil)
	if b.EndOffset(1) != 0 {
		t.Errorf("empty batch advanced end to %d", b.EndOffset(1))
	}
	b.AppendBatch([]Record{rec(1, 1, 1)})
	if b.EndOffset(1) != 1 {
		t.Errorf("single batch end = %d", b.EndOffset(1))
	}
}
