package colstore

import (
	"cmp"
	"slices"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// deltaStore buffers updates to column data as rows in a hash table indexed
// by row_id (§4.1.2). Each entry is a version chain so snapshot reads can
// observe older buffered states; a periodic merge folds the delta into the
// column base. ids keeps the table's keys ascending, so a scan of an id
// range finds its own delta rows by binary search.
type deltaStore struct {
	rows map[schema.RowID]*deltaVersion
	ids  []schema.RowID
}

type deltaVersion struct {
	vals    []types.Value // full row at this version
	ver     uint64
	prev    *deltaVersion
	deleted bool
}

func newDelta() *deltaStore {
	return &deltaStore{rows: make(map[schema.RowID]*deltaVersion)}
}

// put records a new full-row version (or tombstone).
func (d *deltaStore) put(id schema.RowID, vals []types.Value, ver uint64, deleted bool) {
	prev, ok := d.rows[id]
	if !ok {
		// New ids mostly arrive in ascending order: usually an append.
		i, _ := slices.BinarySearch(d.ids, id)
		d.ids = slices.Insert(d.ids, i, id)
	}
	d.rows[id] = &deltaVersion{vals: vals, ver: ver, prev: prev, deleted: deleted}
}

// visible returns the buffered state of id at snapshot snap.
// found=false means the delta holds no version at or before snap, so the
// base (if it contains the row) is authoritative.
func (d *deltaStore) visible(id schema.RowID, snap uint64) (vals []types.Value, deleted, found bool) {
	for v := d.rows[id]; v != nil; v = v.prev {
		if v.ver <= snap {
			return v.vals, v.deleted, true
		}
	}
	return nil, false, false
}

// deltaRow is one live delta row as a scan emits it.
type deltaRow struct {
	id   schema.RowID
	vals []types.Value
}

// view returns what a scan of ids [lo, hi) at snap needs from the delta, in
// fresh slices (a caller may release the store's lock and keep them): the
// ids whose base row a visible version supersedes, deletes included,
// ascending, and the visible rows that pass pred, ordered by (sortBy value,
// id) when the layout keeps a sort and by id otherwise. It costs two binary
// searches plus the range's own delta rows.
func (d *deltaStore) view(lo, hi schema.RowID, snap uint64, pred storage.Pred, sortBy schema.ColID) (over []schema.RowID, live []deltaRow) {
	l, _ := slices.BinarySearch(d.ids, lo)
	h, _ := slices.BinarySearch(d.ids, hi)
	if l >= h {
		return nil, nil
	}
	over, live = make([]schema.RowID, 0, h-l), make([]deltaRow, 0, h-l)
	for _, id := range d.ids[l:h] {
		vals, del, ok := d.visible(id, snap)
		if !ok {
			continue
		}
		over = append(over, id)
		if !del && pred.Match(vals) {
			live = append(live, deltaRow{id: id, vals: vals})
		}
	}
	if sortBy != storage.NoSort {
		slices.SortFunc(live, func(a, b deltaRow) int {
			if c := types.Compare(a.vals[sortBy], b.vals[sortBy]); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id)
		})
	}
	return over, live
}

// size reports the number of buffered row entries.
func (d *deltaStore) size() int { return len(d.rows) }

// tally walks the delta once for Stats: how it changes the live row count
// of a base whose position index is inBase, the versions it chains, and
// its estimated memory footprint.
func (d *deltaStore) tally(inBase map[schema.RowID]int) (liveDiff, versions, bytes int) {
	for id, v := range d.rows {
		_, in := inBase[id]
		switch {
		case v.deleted && in:
			liveDiff--
		case !v.deleted && !in:
			liveDiff++
		}
		for p := v; p != nil; p = p.prev {
			versions++
			bytes += 24 // chain bookkeeping
			for _, val := range p.vals {
				bytes += types.VarWidth(val)
			}
		}
	}
	return liveDiff, versions, bytes
}

// clear drops every buffered version (after a merge).
func (d *deltaStore) clear() {
	d.rows = make(map[schema.RowID]*deltaVersion)
	d.ids = d.ids[:0]
}
