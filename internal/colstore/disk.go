package colstore

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"proteus/internal/disksim"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Disk is the on-disk column store. Following the paper's Parquet-like
// format (§4.1.2), each column is one block: its metadata first, then its
// value bytes — for fixed-width kinds and code encodings a typed array
// with no per-row index. The metadata (colIndex) is cached in memory so
// point reads cost one ranged block access per touched column, and scans
// read only the blocks of projected/filtered columns — preserving the
// columnar I/O advantage on the disk tier — and decode each in one typed
// pass over the device's read-only view of it. Updates buffer in the
// in-memory delta store and are folded in by MergeDelta.
type Disk struct {
	mu    sync.RWMutex
	kinds []types.Kind
	dev   *disksim.Device

	gen   *diskGen
	delta *deltaStore

	imageBytes   int
	encodedBytes int // image bytes held in non-plain encodings
	// reads and writes count block accesses; they sit off mu, which every
	// concurrent scan and point read takes shared.
	reads  atomic.Int64
	writes atomic.Int64
	layout storage.Layout
}

// diskColMeta is the in-memory metadata for one on-disk column: the cached
// serialization index (encoding, data offset, per-encoding index arrays).
// The column's block is its generation's Block(ci).
type diskColMeta struct {
	colIndex
	encBytes int // serialized bytes for non-plain encodings, 0 for plain
	// The sort column stays memory-resident as its built column, typed and
	// encoded as written, so narrowing a scan binary-searches it without a
	// disk read; nil for other columns. (Zone-map-scale metadata, kept per
	// §4.1.3's precedent of memory-resident per-partition metadata.)
	sortCol *colData
}

// diskGen is one loaded image: the offset array, the position index and
// each column's block, in column order. Scans and point reads pin the
// generation they start on, so a concurrent Load or MergeDelta frees its
// blocks only after the last of them has finished reading.
type diskGen struct {
	disksim.Generation
	rowIDs []schema.RowID
	pos    map[schema.RowID]int
	meta   []diskColMeta
}

func newDiskGen(dev *disksim.Device, rowIDs []schema.RowID, pos map[schema.RowID]int, meta []diskColMeta, blocks ...disksim.BlockID) *diskGen {
	g := &diskGen{rowIDs: rowIDs, pos: pos, meta: meta}
	g.Init(dev, blocks...)
	return g
}

// pinLocked takes a reader's reference on the current generation. Requires
// d.mu held.
func (d *Disk) pinLocked() *diskGen {
	d.gen.Pin()
	return d.gen
}

// NewDisk creates an empty on-disk column store backed by dev.
func NewDisk(kinds []types.Kind, dev *disksim.Device, sortBy schema.ColID, compressed bool) *Disk {
	return &Disk{
		kinds: kinds,
		dev:   dev,
		gen:   newDiskGen(dev, nil, make(map[schema.RowID]int), make([]diskColMeta, len(kinds))),
		delta: newDelta(),
		layout: storage.Layout{
			Format: storage.ColumnFormat, Tier: storage.DiskTier,
			SortBy: sortBy, Compressed: compressed,
		},
	}
}

// Layout implements storage.Store.
func (d *Disk) Layout() storage.Layout { return d.layout }

// LoadImage implements storage.Store: builds merged columns and writes one
// block per column.
func (d *Disk) LoadImage(img storage.Image, ver uint64) error {
	if err := img.Check(d.kinds); err != nil {
		return fmt.Errorf("colstore: %w", err)
	}
	b := buildBase(d.kinds, img, d.layout.SortBy, d.layout.Compressed)

	meta := make([]diskColMeta, len(d.kinds))
	blocks := make([]disksim.BlockID, len(d.kinds))
	total := 0
	encTotal := 0
	for ci, c := range b.cols {
		img, idx := c.serializeWithIndex()
		blk, err := d.dev.Write(img)
		if err != nil {
			return err
		}
		m := diskColMeta{colIndex: idx}
		if idx.enc != encPlain {
			m.encBytes = len(img)
			encTotal += len(img)
		}
		if schema.ColID(ci) == d.layout.SortBy {
			m.sortCol = c
		}
		meta[ci], blocks[ci] = m, blk
		total += len(img)
	}

	g := newDiskGen(d.dev, b.rowIDs, b.pos, meta, blocks...)
	d.mu.Lock()
	old := d.gen
	d.gen = g
	d.delta.clear()
	d.imageBytes = total
	d.encodedBytes = encTotal
	d.mu.Unlock()
	d.writes.Add(int64(len(meta)))

	old.Unpin()
	return nil
}

// readCell reads one cell of a pinned generation from disk through the
// cached index.
func (d *Disk) readCell(g *diskGen, ci schema.ColID, p int) (types.Value, error) {
	m := &g.meta[ci]
	kind := d.kinds[ci]
	if m.width > 0 {
		// Fixed-width values and packed codes: one ranged read at
		// dataOff + p·width. The NULL flags, the dictionary and the FoR
		// base are memory-resident metadata.
		b, err := d.dev.ReadRange(g.Block(int(ci)), m.dataOff+p*m.width, m.width)
		if err != nil {
			return types.Null(), err
		}
		d.reads.Add(1)
		switch m.enc {
		case encDict:
			return types.NewString(m.dict[readCodeAt(b, m.width)]), nil
		case encFoR:
			return types.Value{K: kind, I: m.forBase + int64(readCodeAt(b, m.width))}, nil
		}
		if m.isNull(p) {
			return types.Null(), nil
		}
		v, _ := types.DecodeVar(b, kind)
		return v, nil
	}
	var off, n int
	if m.enc == encRLE {
		r := sort.Search(len(m.runStart)-1, func(i int) bool { return m.runStart[i+1] > uint32(p) })
		off = int(m.runOff[r])
		if r+1 < len(m.runOff) {
			n = int(m.runOff[r+1]) - 4 - off // exclude next run's count prefix
		} else {
			n = -1
		}
	} else {
		off = int(m.offs[p])
		n = int(m.offs[p+1]) - off
	}
	var buf []byte
	var err error
	if n < 0 {
		full, e := d.dev.Read(g.Block(int(ci)))
		if e != nil {
			return types.Null(), e
		}
		buf = full[m.dataOff+off:]
	} else {
		buf, err = d.dev.ReadRange(g.Block(int(ci)), m.dataOff+off, n)
		if err != nil {
			return types.Null(), err
		}
	}
	d.reads.Add(1)
	if len(buf) == 0 {
		return types.Null(), nil // a NULL is a zero-length value, as deserializeCol reads it
	}
	v, _ := types.DecodeVar(buf, kind)
	return v, nil
}

// loadColumn reads and deserializes an entire column block of a pinned
// generation. The block comes back as a read-only view of the device's
// bytes, and decoding copies what it keeps. The pin keeps the block
// allocated, so a failed read is a broken invariant, never a column to
// scan around.
func (d *Disk) loadColumn(g *diskGen, ci schema.ColID) *colData {
	img, err := d.dev.Read(g.Block(int(ci)))
	if err != nil {
		panic("colstore: column " + strconv.Itoa(int(ci)) + " of a pinned disk image: " + err.Error())
	}
	d.reads.Add(1)
	return deserializeCol(img)
}

// existsLocked reports whether id is live at the latest version. Requires
// d.mu held (read or write); consults only in-memory state.
func (d *Disk) existsLocked(id schema.RowID) bool {
	if _, del, ok := d.delta.visible(id, storage.Latest); ok {
		return !del
	}
	_, inBase := d.gen.pos[id]
	return inBase
}

// Insert implements storage.Store.
func (d *Disk) Insert(row schema.Row, ver uint64) error {
	if len(row.Vals) != len(d.kinds) {
		return fmt.Errorf("colstore: %d values for %d columns", len(row.Vals), len(d.kinds))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.existsLocked(row.ID) {
		return fmt.Errorf("colstore: duplicate row %d", row.ID)
	}
	vals := make([]types.Value, len(row.Vals))
	copy(vals, row.Vals)
	d.delta.put(row.ID, vals, ver, false)
	return nil
}

// Update implements storage.Store. The current row is fetched outside the
// write lock (disk reads sleep); the partition-level lock manager
// serializes writers, so the read-modify-write is not racy in practice.
func (d *Disk) Update(id schema.RowID, cols []schema.ColID, vals []types.Value, ver uint64) error {
	cur, ok := d.Get(id, allCols(len(d.kinds)), storage.Latest)
	if !ok {
		return fmt.Errorf("colstore: update of missing row %d", id)
	}
	next := cur.Vals
	for i, c := range cols {
		if int(c) >= len(d.kinds) {
			return fmt.Errorf("colstore: column %d out of range", c)
		}
		next[c] = vals[i]
	}
	d.mu.Lock()
	d.delta.put(id, next, ver, false)
	d.mu.Unlock()
	return nil
}

// Delete implements storage.Store.
func (d *Disk) Delete(id schema.RowID, ver uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.existsLocked(id) {
		return fmt.Errorf("colstore: delete of missing row %d", id)
	}
	d.delta.put(id, nil, ver, true)
	return nil
}

// Get implements storage.Store: one ranged block read per projected column.
func (d *Disk) Get(id schema.RowID, cols []schema.ColID, snap uint64) (schema.Row, bool) {
	d.mu.RLock()
	vals, del, ok := d.delta.visible(id, snap)
	g := d.pinLocked()
	p, inBase := g.pos[id]
	d.mu.RUnlock()
	defer g.Unpin()
	if ok {
		if del {
			return schema.Row{}, false
		}
		out := make([]types.Value, len(cols))
		for i, c := range cols {
			out[i] = vals[c]
		}
		return schema.Row{ID: id, Vals: out}, true
	}
	if !inBase {
		return schema.Row{}, false
	}
	out := make([]types.Value, len(cols))
	for i, c := range cols {
		v, err := d.readCell(g, c, p)
		if err != nil {
			return schema.Row{}, false
		}
		out[i] = v
	}
	return schema.Row{ID: id, Vals: out}, true
}

// ScanBatches implements storage.Store: reads only the column blocks the
// scan touches, then streams the merged view of ids [lo, hi) in layout
// order as columnar batches. The offset array, the delta rows and the
// column blocks all come from one critical section's generation, which
// stays pinned until the scan ends; the deserialized blocks are
// scan-local, so handing out vector views over their typed arrays is safe
// for the batch lifetime.
func (d *Disk) ScanBatches(cols []schema.ColID, pred storage.Pred, lo, hi schema.RowID, snap uint64, maxRows int, fn func(*storage.Batch) bool) {
	sortBy := d.layout.SortBy
	d.mu.RLock()
	g := d.pinLocked()
	over, live := d.delta.view(lo, hi, snap, pred, sortBy)
	d.mu.RUnlock()
	defer g.Unpin()

	s := batchScan{
		rowIDs: g.rowIDs, cols: make([]*colData, len(d.kinds)), sortBy: sortBy,
		over: over, live: live, proj: cols, pred: pred, maxRows: maxRows,
	}
	s.narrow(lo, hi, func(i int) types.Value { return g.meta[sortBy].sortCol.get(i) })
	need := func(c schema.ColID) {
		if s.cols[c] == nil {
			s.cols[c] = d.loadColumn(g, c)
		}
	}
	if s.lo < s.hi {
		for _, c := range pred {
			need(c.Col)
		}
		for _, c := range cols {
			need(c)
		}
		if len(live) > 0 && sortBy != storage.NoSort {
			need(sortBy)
		}
	}
	s.run(fn)
}

// MorselBounds implements storage.Store: a scan reads whole column blocks
// whatever its range, so the store is one morsel.
func (d *Disk) MorselBounds(int) []schema.RowID { return nil }

// MergeDelta folds the delta store into new on-disk column blocks.
func (d *Disk) MergeDelta(ver uint64) error {
	return d.LoadImage(storage.Capture(d, d.kinds, ver), ver)
}

// DeltaRows reports the number of buffered delta entries.
func (d *Disk) DeltaRows() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.delta.size()
}

// Stats implements storage.Store.
func (d *Disk) Stats() storage.Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	liveDiff, versions, _ := d.delta.tally(d.gen.pos)
	return storage.Stats{
		Rows:         len(d.gen.rowIDs) + liveDiff,
		Bytes:        d.imageBytes,
		Versions:     len(d.gen.rowIDs) + versions,
		DeltaRows:    d.delta.size(),
		DiskReads:    int(d.reads.Load()),
		DiskWrites:   int(d.writes.Load()),
		EncodedBytes: d.encodedBytes,
	}
}
