package redolog

import (
	"cmp"
	"slices"

	"proteus/internal/partition"
	"proteus/internal/schema"
	"proteus/internal/types"
)

// Checkpoint is a durable snapshot of one partition's full state held by
// the broker alongside the log — the stand-in for the paper's snapshot
// store that bounds recovery replay (§4.3). Offset is the log position the
// snapshot covers: recovery loads Rows at Version and replays from Offset.
//
// The broker owns the image. A base image is handed over with
// SaveCheckpoint where a partition's rows are born outside the log (bulk
// load, split, merge); from then on FoldCheckpoint advances it by applying
// the log's own records, so keeping it fresh costs what changed, not what
// is stored. Rows are ordered by ID. A row's Vals are never written once
// they are part of an image (an update installs a fresh slice), which is
// what lets Checkpoint hand out a copy of the row list that stays
// consistent with its (Version, Offset) pair while later folds proceed.
type Checkpoint struct {
	Rows    []schema.Row
	Version uint64
	Offset  int64
}

// SaveCheckpoint installs a base image, replacing any prior one. The
// broker takes ownership of ck.Rows (it orders them by ID and later folds
// rewrite the slice in place); the caller must not touch the slice again.
// Rows, Version and Offset must describe one state of the partition: every
// record below Offset applied, none at or above it.
func (b *Broker) SaveCheckpoint(pid partition.ID, ck Checkpoint) {
	if !slices.IsSortedFunc(ck.Rows, byRowID) {
		slices.SortFunc(ck.Rows, byRowID)
	}
	t := b.topic(pid)
	t.ckMu.Lock()
	t.setCheckpoint(b, &ck)
	t.ckMu.Unlock()
	if b.obsCkpts != nil {
		b.obsCkpts.Inc()
	}
}

// byRowID is the order images keep their rows in.
func byRowID(x, y schema.Row) int { return cmp.Compare(x.ID, y.ID) }

// setCheckpoint swaps the topic's image and keeps the image-rows gauge in
// step. Caller holds ckMu.
func (t *topic) setCheckpoint(b *Broker, ck *Checkpoint) {
	if b.obsImageRows != nil {
		var before, after int
		if t.ckpt != nil {
			before = len(t.ckpt.Rows)
		}
		if ck != nil {
			after = len(ck.Rows)
		}
		b.obsImageRows.Add(int64(after - before))
	}
	t.ckpt = ck
}

// Checkpoint returns the partition's image, if any: a private copy of the
// row list, consistent with the returned Version and Offset however many
// folds run afterwards. The rows' Vals are shared with the broker and must
// not be written.
func (b *Broker) Checkpoint(pid partition.ID) (Checkpoint, bool) {
	t := b.lookup(pid)
	if t == nil {
		return Checkpoint{}, false
	}
	t.ckMu.Lock()
	defer t.ckMu.Unlock()
	if t.ckpt == nil {
		return Checkpoint{}, false
	}
	ck := *t.ckpt
	ck.Rows = slices.Clone(ck.Rows)
	return ck, true
}

// CheckpointOffset reports the offset covered by the image (0 when none
// exists). Truncation must never pass beyond it, or recovery would lose
// the records' effects.
func (b *Broker) CheckpointOffset(pid partition.ID) int64 {
	t := b.lookup(pid)
	if t == nil {
		return 0
	}
	t.ckMu.Lock()
	defer t.ckMu.Unlock()
	if t.ckpt == nil {
		return 0
	}
	return t.ckpt.Offset
}

// FoldCheckpoint advances the partition's checkpoint to the end of its log
// by applying the retained records at and above the checkpoint offset to
// the image — log compaction, with exactly the effect ReplayInto would
// have on a partition loaded from the image (an insert adds a row, an
// update replaces the touched row's values at the entry's columns, a
// delete drops the row; records at or below the image's version are
// skipped). It does nothing unless at least minTail such records exist,
// and returns how many it folded.
//
// One topic's log is in version order, so any prefix of it is a state the
// partition really passed through: no partition lock and no commit barrier
// are needed, and appenders are held up only while the tail's record
// headers are copied out. A topic that was never checkpointed folds from
// the empty image at offset 0 — its partition was created empty and every
// mutation since is in the log. When the records above the checkpoint have
// already been truncated away the image is left as it is.
func (b *Broker) FoldCheckpoint(pid partition.ID, minTail int64) int64 {
	t := b.lookup(pid)
	if t == nil {
		return 0
	}
	t.ckMu.Lock()
	defer t.ckMu.Unlock()
	if t.dead {
		return 0
	}
	var ck Checkpoint
	if t.ckpt != nil {
		ck = *t.ckpt
	}
	tail := t.tail(ck.Offset, max(minTail, 1))
	if tail == nil {
		return 0
	}
	f := folder{rows: ck.Rows, version: ck.Version}
	for i := range tail {
		f.apply(&tail[i])
	}
	ck.Rows, ck.Version = f.finish(), f.version
	ck.Offset += int64(len(tail))
	t.setCheckpoint(b, &ck)
	if b.obsCkpts != nil {
		b.obsCkpts.Inc()
		b.obsFolded.Add(int64(len(tail)))
		b.obsRejected.Add(f.rejected)
	}
	return int64(len(tail))
}

// tail copies out the retained records from offset from to the end of the
// log. It returns nil when fewer than min are there, or when from lies
// below the base (the records were reclaimed; nothing can be folded).
func (t *topic) tail(from, min int64) []Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if from < t.base || t.base+int64(len(t.records))-from < min {
		return nil
	}
	return slices.Clone(t.records[from-t.base:])
}

// folder applies records to a checkpoint image the way Apply applies them
// to a partition. Updates and deletes of rows the image already lists
// touch only that row's slot (found by binary search; a nil Vals marks a
// row deleted during this fold). Rows whose ID the image does not list go
// to added. finish then closes the holes and merges added in, one pass over
// the row list per fold however many rows came and went.
type folder struct {
	rows     []schema.Row
	added    map[schema.RowID][]types.Value
	holes    int
	version  uint64
	rejected int64
}

// apply folds one record, mirroring ReplayInto + Apply: a record the image
// already reflects is skipped; an entry the image cannot accept (insert of
// a live row, update or delete of a missing one) abandons the rest of its
// record and leaves the version where it was. The log holds only what a
// master applied successfully, so that path is counted, not expected.
func (f *folder) apply(rec *Record) {
	if rec.Version <= f.version {
		return
	}
	for i := range rec.Entries {
		if !f.applyEntry(&rec.Entries[i]) {
			f.rejected++
			return
		}
	}
	f.version = rec.Version
}

// find locates id in the ordered row list. A partition's ids are dense
// until rows are deleted or inserted out of order, so the slot is guessed
// from the first id before it is searched for.
func (f *folder) find(id schema.RowID) (int, bool) {
	if len(f.rows) > 0 {
		if g := int64(id - f.rows[0].ID); g >= 0 && g < int64(len(f.rows)) && f.rows[g].ID == id {
			return int(g), true
		}
	}
	return slices.BinarySearchFunc(f.rows, id, func(r schema.Row, id schema.RowID) int {
		return cmp.Compare(r.ID, id)
	})
}

func (f *folder) applyEntry(e *Entry) bool {
	slot, listed := f.find(e.Row)
	var cur []types.Value
	if listed {
		cur = f.rows[slot].Vals
	} else {
		cur = f.added[e.Row]
	}
	var next []types.Value
	switch e.Op {
	case OpInsert:
		if cur != nil {
			return false
		}
		// A private, non-nil copy: the image must not keep the log record's
		// value arena alive, and nil means "no row".
		next = append(make([]types.Value, 0, len(e.Vals)), e.Vals...)
	case OpUpdate:
		if cur == nil || len(e.Vals) < len(e.Cols) {
			return false
		}
		for _, c := range e.Cols {
			if int(c) >= len(cur) {
				return false
			}
		}
		next = slices.Clone(cur)
		for i, c := range e.Cols {
			next[c] = e.Vals[i]
		}
	case OpDelete:
		if cur == nil {
			return false
		}
	default:
		return true // Apply ignores unknown kinds
	}
	switch {
	case listed:
		if next == nil {
			f.holes++
		} else if cur == nil {
			f.holes--
		}
		f.rows[slot].Vals = next
	case next == nil:
		delete(f.added, e.Row)
	default:
		if f.added == nil {
			f.added = make(map[schema.RowID][]types.Value)
		}
		f.added[e.Row] = next
	}
	return true
}

// finish returns the image's row list with this fold's deletions closed up
// and its new rows merged in, still ordered by ID.
func (f *folder) finish() []schema.Row {
	rows := f.rows
	if f.holes > 0 {
		rows = slices.DeleteFunc(rows, func(r schema.Row) bool { return r.Vals == nil })
	}
	if len(f.added) == 0 {
		return rows
	}
	ins := make([]schema.Row, 0, len(f.added))
	for id, vals := range f.added {
		ins = append(ins, schema.Row{ID: id, Vals: vals})
	}
	slices.SortFunc(ins, byRowID)
	// Merge from the back so only rows above the lowest new ID move.
	i, j := len(rows)-1, len(ins)-1
	rows = append(rows, ins...)
	for w := len(rows) - 1; j >= 0; w-- {
		if i >= 0 && rows[i].ID > ins[j].ID {
			rows[w] = rows[i]
			i--
		} else {
			rows[w] = ins[j]
			j--
		}
	}
	return rows
}
