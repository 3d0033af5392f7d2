package redolog

import (
	"slices"

	"proteus/internal/partition"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Checkpoint is a durable snapshot of one partition's full state held by
// the broker alongside the log — the stand-in for the paper's snapshot
// store that bounds recovery replay (§4.3). Offset is the log position the
// snapshot covers: recovery loads the image at Version and replays from
// Offset. The image is the partition's storage.Image: ascending ids and
// one plain vector per column.
//
// The broker owns the image. A base image is handed over with
// SaveCheckpoint where a partition's rows are born outside the log (bulk
// load, split, merge); from then on FoldCheckpoint advances it by applying
// the log's own records to the columns in place, so keeping it fresh costs
// what changed, not what is stored.
type Checkpoint struct {
	storage.Image
	Version uint64
	Offset  int64

	strBytes int64 // bytes of string payload across Cols; kept by the broker
}

// CheckpointOf captures a partition's live rows at storage.Latest as a
// base image at the partition's version, covering the log below offset.
// The caller holds whatever keeps rows, version and offset consistent.
func CheckpointOf(p *partition.Partition, offset int64) Checkpoint {
	return Checkpoint{Image: p.Image(storage.Latest), Version: p.Version(), Offset: offset}
}

// SaveCheckpoint installs a base image, replacing any prior one. The
// broker takes ownership of ck's slices (it orders the rows by ID, and
// later folds rewrite the columns in place); the caller must not touch
// them again. The image, Version and Offset must describe one state of
// the partition: every record below Offset applied, none at or above it.
func (b *Broker) SaveCheckpoint(pid partition.ID, ck Checkpoint) {
	ck.SortByID()
	ck.strBytes = 0
	for c := range ck.Cols {
		for _, s := range ck.Cols[c].Str {
			ck.strBytes += int64(len(s))
		}
	}
	t := b.topic(pid)
	t.ckMu.Lock()
	t.setCheckpoint(b, &ck)
	t.ckMu.Unlock()
	if b.obsCkpts != nil {
		b.obsCkpts.Inc()
	}
}

// Bytes is what the image's arrays hold: 8 per row id and per fixed-width
// cell, a string header per string cell plus its payload, one per NULL flag.
// The redolog.checkpoint_image_bytes gauge sums it over the topics, and a
// copy built from the image is charged it.
func (ck *Checkpoint) Bytes() int64 {
	n := 8*int64(len(ck.IDs)) + ck.strBytes
	for c := range ck.Cols {
		v := &ck.Cols[c]
		n += 8*int64(len(v.I64)+len(v.F64)) + 16*int64(len(v.Str)) + int64(len(v.Null))
	}
	return n
}

// setCheckpoint swaps the topic's image and keeps the image gauges in
// step. Caller holds ckMu.
func (t *topic) setCheckpoint(b *Broker, ck *Checkpoint) {
	if b.obsImageRows != nil {
		var rows, bytes int64
		if t.ckpt != nil {
			rows, bytes = -int64(len(t.ckpt.IDs)), -t.ckptBytes
		}
		t.ckptBytes = 0
		if ck != nil {
			t.ckptBytes = ck.Bytes()
			rows += int64(len(ck.IDs))
		}
		b.obsImageRows.Add(rows)
		b.obsImageBytes.Add(bytes + t.ckptBytes)
	}
	t.ckpt = ck
}

// Checkpoint returns a copy of the partition's image, if any, taken under
// the image lock: the copy is the caller's own and matches the returned
// Version and Offset however many folds run afterwards.
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
	ck.Image = ck.Image.Clone()
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
// update overwrites the touched row's cells at the entry's columns, a
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
	if ck.Cols == nil {
		ck.Image = storage.NewImage(t.kinds, 0)
	}
	f := folder{ck: &ck}
	for i := range tail {
		f.apply(&tail[i])
	}
	f.finish()
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
// touch only that row's cells, found by binary search; a row deleted
// during this fold is marked in dead. Rows whose ID the image does not
// list go to added, still boxed. finish then closes the holes and merges
// added in, one pass over the columns per fold however many rows came and
// went.
type folder struct {
	ck       *Checkpoint
	dead     []bool // per slot, allocated on the first delete
	holes    int
	added    map[schema.RowID][]types.Value
	recheck  bool // a NULL was cleared or a row dropped: Null may be all false
	rejected int64
}

// apply folds one record, mirroring ReplayInto + Apply: a record the image
// already reflects is skipped; an entry the image cannot accept (insert of
// a live row, update or delete of a missing one) abandons the rest of its
// record and leaves the version where it was. The log holds only what a
// master applied successfully, so that path is counted, not expected.
func (f *folder) apply(rec *Record) {
	if rec.Version <= f.ck.Version {
		return
	}
	for i := range rec.Entries {
		if !f.applyEntry(&rec.Entries[i]) {
			f.rejected++
			return
		}
	}
	f.ck.Version = rec.Version
}

// find locates id in the ordered id list. A partition's ids are dense
// until rows are deleted or inserted out of order, so the slot is guessed
// from the first id before it is searched for.
func (f *folder) find(id schema.RowID) (int, bool) {
	ids := f.ck.IDs
	if len(ids) > 0 {
		if g := int64(id - ids[0]); g >= 0 && g < int64(len(ids)) && ids[g] == id {
			return int(g), true
		}
	}
	return slices.BinarySearch(ids, id)
}

func (f *folder) applyEntry(e *Entry) bool {
	slot, listed := f.find(e.Row)
	live := listed && (f.dead == nil || !f.dead[slot])
	var cur []types.Value // the row's values when it is only in added
	if !listed {
		cur = f.added[e.Row]
	}
	switch e.Op {
	case OpInsert:
		if live || cur != nil {
			return false
		}
		if len(e.Vals) != len(f.ck.Cols) {
			return false
		}
		if !listed {
			// Kept boxed until finish, which copies the values out: the
			// image does not keep the record's value arena alive.
			if f.added == nil {
				f.added = make(map[schema.RowID][]types.Value)
			}
			f.added[e.Row] = e.Vals
			return true
		}
		for c := range f.ck.Cols {
			f.set(c, slot, e.Vals[c])
		}
		f.dead[slot] = false
		f.holes--
	case OpUpdate:
		if !live && cur == nil || len(e.Vals) < len(e.Cols) {
			return false
		}
		for _, c := range e.Cols {
			if int(c) >= len(f.ck.Cols) {
				return false
			}
		}
		if !listed {
			next := slices.Clone(cur)
			for i, c := range e.Cols {
				next[c] = e.Vals[i]
			}
			f.added[e.Row] = next
			return true
		}
		for i, c := range e.Cols {
			f.set(int(c), slot, e.Vals[i])
		}
	case OpDelete:
		switch {
		case live:
			if f.dead == nil {
				f.dead = make([]bool, len(f.ck.IDs))
			}
			f.dead[slot] = true
			f.holes++
		case cur != nil:
			delete(f.added, e.Row)
		default:
			return false
		}
	}
	return true // Apply ignores unknown kinds
}

// set overwrites cell i of column c in place.
func (f *folder) set(c, i int, val types.Value) {
	v := &f.ck.Cols[c]
	n := len(f.ck.IDs)
	if val.IsNull() {
		if v.Null == nil {
			v.Null = make([]bool, n)
		}
		v.Null[i] = true
		val = types.Value{K: v.Kind}
	} else if v.Null != nil && v.Null[i] {
		v.Null[i] = false
		f.recheck = true
	}
	switch v.Kind {
	case types.KindFloat64:
		v.F64[i] = val.Float()
	case types.KindString:
		f.ck.strBytes += int64(len(val.S) - len(v.Str[i]))
		v.Str[i] = val.S
	default:
		if val.K == types.KindFloat64 {
			v.I64[i] = int64(val.F)
		} else {
			v.I64[i] = val.I
		}
	}
}

// finish closes this fold's deletions up, merges its new rows in by ID and
// drops any Null flags the fold left all false.
func (f *folder) finish() {
	ck := f.ck
	if f.holes > 0 {
		for c := range ck.Cols {
			for i, s := range ck.Cols[c].Str {
				if f.dead[i] {
					ck.strBytes -= int64(len(s))
				}
			}
		}
		ck.IDs = compact(ck.IDs, f.dead)
		for c := range ck.Cols {
			v := &ck.Cols[c]
			v.I64, v.F64, v.Str, v.Null = compact(v.I64, f.dead), compact(v.F64, f.dead), compact(v.Str, f.dead), compact(v.Null, f.dead)
		}
		f.recheck = true
	}
	if len(f.added) > 0 {
		f.merge()
	}
	if f.recheck {
		for c := range ck.Cols {
			if v := &ck.Cols[c]; !slices.Contains(v.Null, true) {
				v.Null = nil
			}
		}
	}
}

// compact drops the slots dead marks, in place (nil stays nil).
func compact[T any](s []T, dead []bool) []T {
	w := 0
	for i := range s {
		if !dead[i] {
			s[w] = s[i]
			w++
		}
	}
	clear(s[w:]) // release dropped strings
	return s[:w]
}

// merge inserts the added rows at their places in ID order: every column
// grows once and only the cells above the lowest new ID move.
func (f *folder) merge() {
	ck := f.ck
	ids := make([]schema.RowID, 0, len(f.added))
	for id := range f.added {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	pos := make([]int, len(ids))
	for j, id := range ids {
		at, _ := slices.BinarySearch(ck.IDs, id)
		pos[j] = at + j
	}
	ck.IDs = spread(ck.IDs, pos)
	for j, id := range ids {
		ck.IDs[pos[j]] = id
	}
	for c := range ck.Cols {
		v := &ck.Cols[c]
		switch v.Kind {
		case types.KindFloat64:
			v.F64 = spread(v.F64, pos)
		case types.KindString:
			v.Str = spread(v.Str, pos)
		default:
			v.I64 = spread(v.I64, pos)
		}
		if v.Null != nil {
			v.Null = spread(v.Null, pos)
		}
		for j, id := range ids {
			if v.Kind == types.KindString {
				v.Str[pos[j]] = "" // a moved cell's copy, not counted in strBytes
			}
			if v.Null != nil {
				v.Null[pos[j]] = false
			}
			f.set(c, pos[j], f.added[id][c]) // makes a Null at the grown length if needed
		}
	}
}

// spread grows s by len(pos) and opens slot pos[j] (ascending final
// positions) for each new element, moving the elements between them up.
// The opened slots hold stale copies for the caller to overwrite.
func spread[T any](s []T, pos []int) []T {
	n, k := len(s), len(pos)
	s = slices.Grow(s, k)[:n+k]
	hi, end := n, n+k
	for j := k - 1; j >= 0; j-- {
		moved := end - pos[j] - 1
		copy(s[pos[j]+1:end], s[hi-moved:hi])
		hi -= moved
		end = pos[j]
	}
	return s
}
