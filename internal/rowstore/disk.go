package rowstore

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"proteus/internal/disksim"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Disk is the on-disk row store (§4.1.1). The serialized image has two
// parts: an index giving each row's offset, and the row data with
// variable-sized values inlined after their lengths. The index is cached in
// memory so point reads cost one ranged block access; scans read the image
// sequentially. Updates are buffered in memory as version chains and
// applied to disk as a batch by Flush.
type Disk struct {
	mu    sync.RWMutex
	kinds []types.Kind
	dev   *disksim.Device

	gen    *diskGen                     // the flushed image
	buffer map[schema.RowID]*bufVersion // pending newer versions
	bufIDs []schema.RowID               // sorted ids present only in buffer
	// reads and writes count block accesses; they sit off mu, which every
	// concurrent scan and point read takes.
	reads  atomic.Int64
	writes atomic.Int64
	layout storage.Layout
}

// diskGen is one flushed image: its block, each row's place in it, the
// sorted ids it holds and its size. A generation never changes once made;
// LoadImage (every Flush) swaps in a new one, and scans and point reads
// pin the one they start on, so its block is freed only after the last of
// them has finished reading it.
type diskGen struct {
	disksim.Generation
	index map[schema.RowID]idxEntry
	order []schema.RowID
	bytes int
}

type idxEntry struct {
	off int
	n   int
}

type bufVersion struct {
	vals    []types.Value // full row at this version
	ver     uint64
	prev    *bufVersion
	deleted bool
}

// NewDisk creates an empty on-disk row store backed by dev.
func NewDisk(kinds []types.Kind, dev *disksim.Device) *Disk {
	g := &diskGen{index: make(map[schema.RowID]idxEntry)}
	g.Init(dev)
	return &Disk{
		kinds:  kinds,
		dev:    dev,
		gen:    g,
		buffer: make(map[schema.RowID]*bufVersion),
		layout: storage.Layout{Format: storage.RowFormat, Tier: storage.DiskTier, SortBy: storage.NoSort},
	}
}

// Layout implements storage.Store.
func (d *Disk) Layout() storage.Layout { return d.layout }

// serialize produces the disk image and index for an image's rows.
func (d *Disk) serialize(img storage.Image) ([]byte, map[schema.RowID]idxEntry) {
	var buf []byte
	index := make(map[schema.RowID]idxEntry, len(img.IDs))
	var hdr [8]byte
	for i, id := range img.IDs {
		start := len(buf)
		binary.LittleEndian.PutUint64(hdr[:], uint64(id))
		buf = append(buf, hdr[:]...)
		for c := range img.Cols {
			v := img.Cols[c].Value(i)
			buf = append(buf, byte(v.K))
			buf = types.AppendVar(buf, v)
		}
		index[id] = idxEntry{off: start, n: len(buf) - start}
	}
	return buf, index
}

// decodeRow decodes one serialized row image.
func (d *Disk) decodeRow(data []byte) (schema.Row, error) {
	if len(data) < 8 {
		return schema.Row{}, fmt.Errorf("rowstore: truncated row image")
	}
	id := schema.RowID(binary.LittleEndian.Uint64(data))
	off := 8
	vals := make([]types.Value, len(d.kinds))
	for i, k := range d.kinds {
		if off >= len(data) {
			return schema.Row{}, fmt.Errorf("rowstore: truncated row %d", id)
		}
		got := types.Kind(data[off])
		off++
		if got == types.KindNull {
			vals[i] = types.Null()
			continue
		}
		if got != k {
			return schema.Row{}, fmt.Errorf("rowstore: row %d column %d kind %v, want %v", id, i, got, k)
		}
		v, n := types.DecodeVar(data[off:], k)
		vals[i] = v
		off += n
	}
	return schema.Row{ID: id, Vals: vals}, nil
}

// LoadImage implements storage.Store: rows are dynamically sized and
// written to disk sequentially (§4.4) as a new generation, and the old one
// is freed when its last reader unpins it.
func (d *Disk) LoadImage(image storage.Image, ver uint64) error {
	if err := image.Check(d.kinds); err != nil {
		return fmt.Errorf("rowstore: %w", err)
	}
	img, index := d.serialize(image)
	blk, err := d.dev.Write(img)
	if err != nil {
		return err
	}
	g := &diskGen{index: index, order: slices.Clone(image.IDs), bytes: len(img)}
	g.Init(d.dev, blk)

	d.mu.Lock()
	old := d.gen
	d.gen = g
	d.buffer = make(map[schema.RowID]*bufVersion)
	d.bufIDs = nil
	d.mu.Unlock()
	d.writes.Add(1)
	old.Unpin()
	return nil
}

func (d *Disk) bufferWrite(id schema.RowID, vals []types.Value, ver uint64, deleted bool) {
	cur := d.buffer[id]
	d.buffer[id] = &bufVersion{vals: vals, ver: ver, prev: cur, deleted: deleted}
	if cur == nil {
		if _, onDisk := d.gen.index[id]; !onDisk {
			i := sort.Search(len(d.bufIDs), func(i int) bool { return d.bufIDs[i] >= id })
			if i == len(d.bufIDs) || d.bufIDs[i] != id {
				d.bufIDs = append(d.bufIDs, 0)
				copy(d.bufIDs[i+1:], d.bufIDs[i:])
				d.bufIDs[i] = id
			}
		}
	}
}

// Insert implements storage.Store.
func (d *Disk) Insert(row schema.Row, ver uint64) error {
	if len(row.Vals) != len(d.kinds) {
		return fmt.Errorf("rowstore: %d values for %d columns", len(row.Vals), len(d.kinds))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// A row is a duplicate if it is live in the buffer, or present on disk
	// with no buffered tombstone (live defers to disk in that case).
	if v, done := live(d.buffer, d.gen, row.ID, storage.Latest); !done || v != nil {
		return fmt.Errorf("rowstore: duplicate row %d", row.ID)
	}
	vals := make([]types.Value, len(row.Vals))
	copy(vals, row.Vals)
	d.bufferWrite(row.ID, vals, ver, false)
	return nil
}

// live returns a row's values at snap from a buffer over a generation's
// image, consulting the buffer first. The bool reports whether the lookup
// completed (a nil slice with ok=true means deleted/absent); when it did
// not, the row is in the image. The caller holds d.mu, shared at least.
func live(buf map[schema.RowID]*bufVersion, g *diskGen, id schema.RowID, snap uint64) ([]types.Value, bool) {
	for v := buf[id]; v != nil; v = v.prev {
		if v.ver <= snap {
			if v.deleted {
				return nil, true
			}
			return v.vals, true
		}
	}
	if _, ok := g.index[id]; ok {
		return nil, false // caller must read from disk
	}
	return nil, true
}

// lookup resolves a row at snap against the current buffer and
// generation, pinning the generation; the caller unpins it.
func (d *Disk) lookup(id schema.RowID, snap uint64) (vals []types.Value, done bool, g *diskGen) {
	d.mu.RLock()
	vals, done = live(d.buffer, d.gen, id, snap)
	g = d.gen
	g.Pin()
	d.mu.RUnlock()
	return vals, done, g
}

// readRow reads one row of a pinned generation's image.
func (d *Disk) readRow(g *diskGen, id schema.RowID) (schema.Row, error) {
	e, ok := g.index[id]
	if !ok {
		return schema.Row{}, fmt.Errorf("rowstore: row %d not on disk", id)
	}
	data, err := d.dev.ReadRange(g.Block(0), e.off, e.n)
	if err != nil {
		return schema.Row{}, err
	}
	d.reads.Add(1)
	return d.decodeRow(data)
}

// Update implements storage.Store.
func (d *Disk) Update(id schema.RowID, cols []schema.ColID, vals []types.Value, ver uint64) error {
	cur, err := d.currentRow(id)
	if err != nil {
		return err
	}
	next := make([]types.Value, len(cur))
	copy(next, cur)
	for i, c := range cols {
		if int(c) >= len(d.kinds) {
			return fmt.Errorf("rowstore: column %d out of range", c)
		}
		next[c] = vals[i]
	}
	d.mu.Lock()
	d.bufferWrite(id, next, ver, false)
	d.mu.Unlock()
	return nil
}

// currentRow fetches the newest values of a live row, from buffer or disk.
func (d *Disk) currentRow(id schema.RowID) ([]types.Value, error) {
	vals, done, g := d.lookup(id, storage.Latest)
	defer g.Unpin()
	if done {
		if vals == nil {
			return nil, fmt.Errorf("rowstore: row %d not found", id)
		}
		return vals, nil
	}
	r, err := d.readRow(g, id)
	if err != nil {
		return nil, err
	}
	return r.Vals, nil
}

// Delete implements storage.Store.
func (d *Disk) Delete(id schema.RowID, ver uint64) error {
	if _, err := d.currentRow(id); err != nil {
		return err
	}
	d.mu.Lock()
	d.bufferWrite(id, nil, ver, true)
	d.mu.Unlock()
	return nil
}

// Get implements storage.Store. Point reads cost one ranged block access
// when the row is not in the update buffer. Snapshots older than the last
// flush observe the flushed image (the maintenance layer flushes only
// versions no active snapshot still needs).
func (d *Disk) Get(id schema.RowID, cols []schema.ColID, snap uint64) (schema.Row, bool) {
	vals, done, g := d.lookup(id, snap)
	defer g.Unpin()
	if done {
		if vals == nil {
			return schema.Row{}, false
		}
		return schema.Row{ID: id, Vals: project(vals, cols)}, true
	}
	r, err := d.readRow(g, id)
	if err != nil {
		return schema.Row{}, false
	}
	return schema.Row{ID: id, Vals: project(r.Vals, cols)}, true
}

func project(vals []types.Value, cols []schema.ColID) []types.Value {
	out := make([]types.Value, len(cols))
	for i, c := range cols {
		out[i] = vals[c]
	}
	return out
}

// ScanBatches implements storage.Store: one sequential image read merged
// with the update buffer, transposed into pooled batches in RowID order.
// Only the rows with lo <= id < hi are decoded. The generation and the
// buffer over it come from one critical section, and the generation stays
// pinned until the scan ends, so a concurrent Flush neither frees the
// image under the scan nor pairs it with the next image's buffer.
func (d *Disk) ScanBatches(cols []schema.ColID, pred storage.Pred, lo, hi schema.RowID, snap uint64, maxRows int, fn func(*storage.Batch) bool) {
	if maxRows <= 0 {
		maxRows = storage.DefaultBatchRows
	}
	d.mu.RLock()
	g, buf := d.gen, d.buffer
	g.Pin()
	order := idRange(g.order, lo, hi)
	bufIDs := append([]schema.RowID(nil), idRange(d.bufIDs, lo, hi)...)
	d.mu.RUnlock()
	defer g.Unpin()

	diskRows := map[schema.RowID]schema.Row{}
	if len(order) > 0 {
		img, err := d.dev.Read(g.Block(0))
		if err == nil {
			d.reads.Add(1)
			for _, id := range order {
				e := g.index[id]
				if r, err := d.decodeRow(img[e.off : e.off+e.n]); err == nil {
					diskRows[id] = r
				}
			}
		}
	}

	b := storage.GetBatch(len(cols))
	defer storage.PutBatch(b)
	out := make([]types.Value, len(cols))
	stopped := false

	// Merge disk order with buffered-only ids.
	ids := mergeIDs(order, bufIDs)
	for _, id := range ids {
		var vals []types.Value
		d.mu.RLock()
		bvals, done := live(buf, g, id, snap)
		d.mu.RUnlock()
		if done {
			if bvals == nil {
				continue
			}
			vals = bvals
		} else if r, ok := diskRows[id]; ok {
			vals = r.Vals
		} else {
			continue
		}
		if !pred.Match(vals) {
			continue
		}
		for i, c := range cols {
			out[i] = vals[c]
		}
		b.AppendRow(id, out)
		if b.NumRows() >= maxRows {
			if !storage.EmitBatch(b, fn) {
				stopped = true
				break
			}
			b.Reset(len(cols))
		}
	}
	if !stopped && b.NumRows() > 0 {
		storage.EmitBatch(b, fn)
	}
}

// idRange returns the ids of the ascending slice ids with lo <= id < hi.
func idRange(ids []schema.RowID, lo, hi schema.RowID) []schema.RowID {
	i, _ := slices.BinarySearch(ids, lo)
	j, _ := slices.BinarySearch(ids, hi)
	return ids[i:j]
}

func mergeIDs(a, b []schema.RowID) []schema.RowID {
	out := make([]schema.RowID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// MorselBounds implements storage.Store: a scan reads the whole image
// whatever its range, so the store is one morsel.
func (d *Disk) MorselBounds(int) []schema.RowID { return nil }

// Flush applies the buffered updates to disk as one batch, rewriting the
// partition image (§4.1.1: in-place for same-size updates is subsumed by
// the batch rewrite in this implementation).
func (d *Disk) Flush(ver uint64) error {
	return d.LoadImage(storage.Capture(d, d.kinds, ver), ver)
}

// BufferedRows reports how many rows have pending buffered updates.
func (d *Disk) BufferedRows() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.buffer)
}

// Stats implements storage.Store.
func (d *Disk) Stats() storage.Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	live := 0
	seen := map[schema.RowID]bool{}
	for id, v := range d.buffer {
		seen[id] = true
		if !v.deleted {
			live++
		}
	}
	for id := range d.gen.index {
		if !seen[id] {
			live++
		}
	}
	nv := 0
	for _, v := range d.buffer {
		for p := v; p != nil; p = p.prev {
			nv++
		}
	}
	return storage.Stats{
		Rows:       live,
		Bytes:      d.gen.bytes,
		Versions:   nv,
		DeltaRows:  len(d.buffer),
		DiskReads:  int(d.reads.Load()),
		DiskWrites: int(d.writes.Load()),
	}
}
