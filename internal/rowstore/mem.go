// Package rowstore implements Proteus' row-oriented (n-ary) storage layouts
// (§4.1.1 of the paper): an in-memory store holding each row version as a
// fixed-size byte array, chained to the version before it, and an on-disk
// store with an index section plus inlined variable-size data that buffers
// updates in memory and applies them as batches.
//
// The in-memory store holds no Go object per row or per version: a loaded
// image is one byte slab, later versions are appended to a chunked byte
// arena, and a version's header — its version number, the index of the
// version before it, and where its bytes lie — sits in one pointer-free
// header slab. The paper keeps the previous version's pointer in the
// array's last 8 bytes; under Go's GC the link is a header index instead.
package rowstore

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// noHdr ends a version chain and the free-header list; noChunk marks a
// header without bytes: on a chain, a tombstone; else a free header.
const (
	noHdr   int32 = -1
	noChunk int32 = -1
)

// Arena chunks grow from minChunk by doubling to maxChunk, so a store that
// sees a handful of writes holds a few KB of arena, not a full chunk. A
// version longer than a chunk gets one of its own. At most maxSpare empty
// chunks keep their buffers for reuse; the others are released.
const (
	minChunk = 4 << 10
	maxChunk = 64 << 10
	maxSpare = 2
)

// hdr is one version's header. The version's bytes — a null bitmap, the
// fixed-width slots and the long strings' tail (types.PutFixed) — are
// chunks[chunk].buf[off:off+n]; a tombstone has none.
type hdr struct {
	ver    uint64
	prev   int32 // the previous version's header; on the free list, the next free header
	chunk  int32
	off, n int32
}

func (h *hdr) deleted() bool { return h.chunk == noChunk }

// chunk is one byte array of the arena, filled from the front. live counts
// the bytes of buf that retained versions hold; the rest belongs to
// reclaimed versions.
type chunk struct {
	buf  []byte
	live int
	evac bool // marked for evacuation by the GC pass running now
}

// Mem is the in-memory row store. Each row version is a byte array sized
// from the table schema and the store's column slice; updates rewrite the
// whole row into a new version chained to the previous one, and GC cuts
// the chains below the oldest snapshot still readable, returning headers
// and bytes for reuse.
type Mem struct {
	mu    sync.RWMutex
	kinds []types.Kind
	offs  []int // byte offset of each column's slot within a version
	strs  []int // the string columns, whose long values live in the tail
	width int   // null bitmap plus fixed slots, where a version's tail begins
	// ids lists every row in ascending order, and heads[i] is the header of
	// ids[i]'s newest version.
	ids   []schema.RowID
	heads []int32
	hdrs  []hdr
	free  int32 // first free header, the rest chained through prev
	// chunks[0] is the loaded image's slab, the rest the arena; tail is the
	// arena chunk new versions are appended to, spare the empty ones.
	chunks []chunk
	tail   int32
	spare  []int32
	grown  int // arena chunks allocated since the image, for their size
	// chained lists, once each, the rows whose chain is longer than one
	// version: the only rows GC has anything to cut.
	chained []schema.RowID
	// live, nvers and nbytes count live rows, retained versions and the
	// bytes of their arrays.
	live, nvers, nbytes int
	layout              storage.Layout
}

// NewMem creates an empty in-memory row store over the given column kinds.
func NewMem(kinds []types.Kind) *Mem {
	offs := make([]int, len(kinds))
	var strs []int
	w := (len(kinds) + 7) / 8 // the null bitmap
	for i, k := range kinds {
		offs[i] = w
		w += k.FixedWidth()
		if k == types.KindString {
			strs = append(strs, i)
		}
	}
	return &Mem{
		kinds:  kinds,
		offs:   offs,
		strs:   strs,
		width:  w,
		free:   noHdr,
		chunks: []chunk{{}}, // no image yet
		tail:   noChunk,
		layout: storage.Layout{Format: storage.RowFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort},
	}
}

// Layout implements storage.Store.
func (m *Mem) Layout() storage.Layout { return m.layout }

func isNull(data []byte, c int) bool { return data[c>>3]&(1<<(c&7)) != 0 }

func setNull(data []byte, c int, null bool) {
	if null {
		data[c>>3] |= 1 << (c & 7)
	} else {
		data[c>>3] &^= 1 << (c & 7)
	}
}

// size is the length of the version encode writes for vals.
func (m *Mem) size(vals []types.Value) int {
	n := m.width
	for _, v := range vals {
		n += types.TailWidth(v)
	}
	return n
}

// encode writes the version of vals into dst, whose capacity is at least
// m.size(vals), and returns it: a NULL sets its bitmap bit and leaves its
// slot zeroed.
func (m *Mem) encode(dst []byte, vals []types.Value) []byte {
	dst = dst[:m.width]
	clear(dst)
	for i, v := range vals {
		if v.IsNull() {
			setNull(dst, i, true)
			continue
		}
		dst = types.PutFixed(dst, m.offs[i], v)
	}
	return dst
}

// rewrite writes into dst the update of version cur that sets cols to vals,
// and returns it: cur's bitmap and fixed slots and the long strings it keeps
// are copied, then the new values written. A NULL value sets the column's
// bit and zeroes its slot.
func (m *Mem) rewrite(dst, cur []byte, cols []schema.ColID, vals []types.Value) []byte {
	dst = append(dst[:0], cur[:m.width]...)
	for _, c := range m.strs {
		if !slices.Contains(cols, schema.ColID(c)) {
			dst = types.CopyString(dst, cur, m.offs[c])
		}
	}
	for i, c := range cols {
		if slices.Contains(cols[i+1:], c) {
			continue // the last write of a column wins, and only it keeps a tail
		}
		setNull(dst, int(c), vals[i].IsNull())
		if vals[i].IsNull() {
			clear(dst[m.offs[c] : m.offs[c]+m.kinds[c].FixedWidth()])
			continue
		}
		dst = types.PutFixed(dst, m.offs[c], vals[i])
	}
	return dst
}

// rewriteSize bounds the length of rewrite's version.
func (m *Mem) rewriteSize(cur []byte, cols []schema.ColID, vals []types.Value) int {
	n := m.size(vals)
	for _, c := range m.strs {
		if !slices.Contains(cols, schema.ColID(c)) {
			n += len(types.StringTail(cur, m.offs[c]))
		}
	}
	return n
}

// bytes returns the array of the version at header h.
func (m *Mem) bytes(h int32) []byte {
	hd := &m.hdrs[h]
	if hd.chunk == noChunk {
		return nil
	}
	return m.chunks[hd.chunk].buf[hd.off : hd.off+hd.n : hd.off+hd.n]
}

// room returns space for a version of up to n bytes at the end of the tail
// chunk, with length 0; place commits what was written there.
func (m *Mem) room(n int) []byte {
	if m.tail == noChunk || cap(m.chunks[m.tail].buf)-len(m.chunks[m.tail].buf) < n {
		m.nextTail(n)
	}
	buf := m.chunks[m.tail].buf
	return buf[len(buf) : len(buf) : len(buf)+n]
}

// nextTail makes the tail a chunk with at least n free bytes: a spare one
// if it has room, else a fresh one.
func (m *Mem) nextTail(n int) {
	if k := len(m.spare); k > 0 {
		ci := m.spare[k-1]
		m.spare = m.spare[:k-1]
		if cap(m.chunks[ci].buf) < n {
			m.chunks[ci].buf = m.newChunk(n)
		}
		m.tail = ci
		return
	}
	m.chunks = append(m.chunks, chunk{buf: m.newChunk(n)})
	m.tail = int32(len(m.chunks) - 1)
}

func (m *Mem) newChunk(n int) []byte {
	size := min(maxChunk, minChunk<<min(m.grown, 4))
	m.grown++
	return make([]byte, 0, max(size, n))
}

// take commits the n bytes just written into room's space and returns
// where they lie.
func (m *Mem) take(n int) (ci, off int32) {
	c := &m.chunks[m.tail]
	o := len(c.buf)
	c.buf = c.buf[:o+n]
	c.live += n
	return m.tail, int32(o)
}

// place commits data, just written into room's space, as a version and
// returns its header.
func (m *Mem) place(data []byte, ver uint64, prev int32) int32 {
	ci, off := m.take(len(data))
	return m.newHdr(hdr{ver: ver, prev: prev, chunk: ci, off: off, n: int32(len(data))})
}

func (m *Mem) newHdr(h hdr) int32 {
	if i := m.free; i != noHdr {
		m.free = m.hdrs[i].prev
		m.hdrs[i] = h
		return i
	}
	m.hdrs = append(m.hdrs, h)
	return int32(len(m.hdrs) - 1)
}

// release returns header h to the free list and its bytes to their chunk.
func (m *Mem) release(h int32) {
	hd := &m.hdrs[h]
	if hd.chunk != noChunk {
		m.chunks[hd.chunk].live -= int(hd.n)
	}
	m.nbytes -= int(hd.n)
	*hd = hdr{prev: m.free, chunk: noChunk}
	m.free = h
}

// find returns the index of id in ids, and whether it is there. A loaded
// partition's ids are mostly consecutive, so the offset from the first id
// is tried before a binary search.
func (m *Mem) find(id schema.RowID) (int, bool) {
	if n := len(m.ids); n > 0 {
		if i := id - m.ids[0]; i >= 0 && i < schema.RowID(n) && m.ids[i] == id {
			return int(i), true
		}
	}
	return slices.BinarySearch(m.ids, id)
}

// head returns the header of id's newest version, or noHdr.
func (m *Mem) head(id schema.RowID) int32 {
	if i, ok := m.find(id); ok {
		return m.heads[i]
	}
	return noHdr
}

// push installs header h as the head of id's chain, at index i of ids.
// A chain growing from one version to two joins the chained list.
func (m *Mem) push(i int, id schema.RowID, h int32) {
	if p := m.hdrs[h].prev; p != noHdr && m.hdrs[p].prev == noHdr {
		m.chained = append(m.chained, id)
	}
	m.heads[i] = h
	m.nvers++
	m.nbytes += int(m.hdrs[h].n)
}

// Insert implements storage.Store.
func (m *Mem) Insert(row schema.Row, ver uint64) error {
	if len(row.Vals) != len(m.kinds) {
		return fmt.Errorf("rowstore: %d values for %d columns", len(row.Vals), len(m.kinds))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.find(row.ID)
	cur := noHdr
	if ok {
		if cur = m.heads[i]; !m.hdrs[cur].deleted() {
			return fmt.Errorf("rowstore: duplicate row %d", row.ID)
		}
	} else {
		m.ids = slices.Insert(m.ids, i, row.ID)
		m.heads = slices.Insert(m.heads, i, noHdr)
	}
	data := m.encode(m.room(m.size(row.Vals)), row.Vals)
	m.push(i, row.ID, m.place(data, ver, cur))
	m.live++
	return nil
}

// Update implements storage.Store. Once written, a version is read-only:
// updates rewrite the entire row and link the previous version (§4.1.1).
func (m *Mem) Update(id schema.RowID, cols []schema.ColID, vals []types.Value, ver uint64) error {
	for _, c := range cols {
		if int(c) >= len(m.kinds) {
			return fmt.Errorf("rowstore: column %d out of range", c)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.find(id)
	if !ok || m.hdrs[m.heads[i]].deleted() {
		return fmt.Errorf("rowstore: update of missing row %d", id)
	}
	cur := m.heads[i]
	dst := m.room(m.rewriteSize(m.bytes(cur), cols, vals))
	// room may have moved the tail but never moves bytes: cur is read
	// after it.
	data := m.rewrite(dst, m.bytes(cur), cols, vals)
	m.push(i, id, m.place(data, ver, cur))
	return nil
}

// Delete implements storage.Store, writing a tombstone version.
func (m *Mem) Delete(id schema.RowID, ver uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.find(id)
	if !ok || m.hdrs[m.heads[i]].deleted() {
		return fmt.Errorf("rowstore: delete of missing row %d", id)
	}
	m.push(i, id, m.newHdr(hdr{ver: ver, prev: m.heads[i], chunk: noChunk}))
	m.live--
	return nil
}

// visible walks the chain from header h to the newest version at or before
// snap, returning its bytes; ok is false when there is none or it is a
// tombstone.
func (m *Mem) visible(h int32, snap uint64) ([]byte, bool) {
	for h != noHdr && m.hdrs[h].ver > snap {
		h = m.hdrs[h].prev
	}
	if h == noHdr || m.hdrs[h].deleted() {
		return nil, false
	}
	return m.bytes(h), true
}

// cell decodes column c of a version. Strings are copied out of the
// arena, so a value outlives the read lock it was decoded under.
func (m *Mem) cell(data []byte, c schema.ColID) types.Value {
	if isNull(data, int(c)) {
		return types.Null()
	}
	return types.GetFixed(data, m.offs[c], m.kinds[c])
}

// Get implements storage.Store.
func (m *Mem) Get(id schema.RowID, cols []schema.ColID, snap uint64) (schema.Row, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.visible(m.head(id), snap)
	if !ok {
		return schema.Row{}, false
	}
	out := make([]types.Value, len(cols))
	for i, c := range cols {
		out[i] = m.cell(data, c)
	}
	return schema.Row{ID: id, Vals: out}, true
}

// ScanBatches implements storage.Store by transposing matching rows with
// lo <= id < hi into pooled batches, in RowID order. Each row is a strided
// walk over its own array — the cost asymmetry of Figure 3 — but only the
// cells the scan reads are decoded: the predicate's columns, then the
// projected columns of the rows that pass.
func (m *Mem) ScanBatches(cols []schema.ColID, pred storage.Pred, lo, hi schema.RowID, snap uint64, maxRows int, fn func(*storage.Batch) bool) {
	if maxRows <= 0 {
		maxRows = storage.DefaultBatchRows
	}
	b := storage.GetBatch(len(cols))
	defer storage.PutBatch(b)
	sc := memScan{cols: cols, full: make([]types.Value, len(m.kinds)), out: make([]types.Value, len(cols)),
		pred: pred, hi: hi, snap: snap, maxRows: maxRows}
	for _, c := range pred {
		if int(c.Col) < len(m.kinds) && !slices.Contains(sc.pcols, c.Col) {
			sc.pcols = append(sc.pcols, c.Col)
		}
	}
	for _, c := range cols {
		if !slices.Contains(sc.pcols, c) && !slices.Contains(sc.rest, c) {
			sc.rest = append(sc.rest, c)
		}
	}
	for more := true; more; {
		lo, more = m.fill(&sc, b, lo)
		if b.NumRows() == 0 || !storage.EmitBatch(b, fn) {
			return
		}
		b.Reset(len(cols))
	}
}

// memScan is one batch scan's parameters and decode scratch: full holds
// the decoded cells by column, pcols are the predicate's columns and rest
// the projected columns the predicate does not read.
type memScan struct {
	cols, pcols, rest []schema.ColID
	full, out         []types.Value
	pred              storage.Pred
	hi                schema.RowID
	snap              uint64
	maxRows           int
}

// fill transposes into b the next rows visible at the scan's snapshot with
// from <= id < hi, up to maxRows, returning where the following batch
// resumes and whether more rows may follow. The read lock covers one batch
// only: a consumer holding up a batch never holds up the store's writers
// or GC, and what the scan resumes over is unchanged at its snapshot —
// rows GC dropped were invisible there, rows inserted since are newer.
func (m *Mem) fill(sc *memScan, b *storage.Batch, from schema.RowID) (schema.RowID, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	start := sort.Search(len(m.ids), func(i int) bool { return m.ids[i] >= from })
	for i := start; i < len(m.ids); i++ {
		id := m.ids[i]
		if id >= sc.hi {
			break
		}
		data, ok := m.visible(m.heads[i], sc.snap)
		if !ok {
			continue
		}
		for _, c := range sc.pcols {
			sc.full[c] = m.cell(data, c)
		}
		if !sc.pred.Match(sc.full) {
			continue
		}
		for _, c := range sc.rest {
			sc.full[c] = m.cell(data, c)
		}
		for j, c := range sc.cols {
			sc.out[j] = sc.full[c]
		}
		b.AppendRow(id, sc.out)
		if b.NumRows() >= sc.maxRows {
			return id + 1, true
		}
	}
	return 0, false
}

// MorselBounds implements storage.Store: cut points every targetRows
// entries of the sorted id slice.
func (m *Mem) MorselBounds(targetRows int) []schema.RowID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if targetRows <= 0 || len(m.ids) == 0 {
		return nil
	}
	bounds := make([]schema.RowID, 0, len(m.ids)/targetRows+2)
	for i := 0; i < len(m.ids); i += targetRows {
		bounds = append(bounds, m.ids[i])
	}
	bounds = append(bounds, m.ids[len(m.ids)-1]+1)
	return bounds
}

// LoadImage implements storage.Store, bulk loading the image as one slab of
// row arrays (§4.4): the slab, the headers and the index are an allocation
// each, whatever the row count. The header slab keeps an eighth spare, so
// the first updates after a load do not grow it.
func (m *Mem) LoadImage(img storage.Image, ver uint64) error {
	if err := img.Check(m.kinds); err != nil {
		return fmt.Errorf("rowstore: %w", err)
	}
	n := len(img.IDs)
	size := n * m.width
	for _, c := range m.strs {
		for i, s := range img.Cols[c].Str {
			if len(s) > 8 && (img.Cols[c].Null == nil || !img.Cols[c].Null[i]) {
				size += len(s)
			}
		}
	}
	if size > math.MaxInt32 || n > math.MaxInt32/2 {
		return fmt.Errorf("rowstore: image of %d rows and %d bytes exceeds one slab", n, size)
	}
	slab := make([]byte, 0, size)
	hdrs := make([]hdr, n, n+n/8+16)
	heads := make([]int32, n)
	vals := make([]types.Value, len(m.kinds))
	for i := range img.IDs {
		for c := range vals {
			vals[c] = img.Cols[c].Value(i)
		}
		off := len(slab)
		row := m.encode(slab[off:], vals)
		slab = slab[:off+len(row)]
		hdrs[i] = hdr{ver: ver, prev: noHdr, chunk: 0, off: int32(off), n: int32(len(row))}
		heads[i] = int32(i)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ids, m.heads, m.hdrs, m.free = slices.Clone(img.IDs), heads, hdrs, noHdr
	m.chunks, m.tail, m.spare, m.grown = []chunk{{buf: slab, live: len(slab)}}, noChunk, nil, 0
	m.chained = m.chained[:0]
	m.live, m.nvers, m.nbytes = n, n, len(slab)
	return nil
}

// Stats implements storage.Store from counters every mutation and GC keep
// current: O(1), whatever the store's size.
func (m *Mem) Stats() storage.Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return storage.Stats{Rows: m.live, Bytes: m.nbytes, Versions: m.nvers}
}

// GC reclaims every version no snapshot at or above h can observe: on each
// chain, everything older than the newest version at or below h, and that
// version too when it is a tombstone (reading nothing and reading a
// tombstone are the same answer). A row whose tombstone is its newest
// version leaves the store. Only the chained rows are visited, so a pass
// costs what was written since the last one, not the store's size. The
// reclaimed headers go to the free list and their bytes back to their
// chunks; then compact reuses the emptied chunks and evacuates the nearly
// empty ones. It returns the number of versions reclaimed.
func (m *Mem) GC(h uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	reclaimed := 0
	var gone []schema.RowID
	keep := m.chained[:0]
	for _, id := range m.chained {
		head := m.head(id)
		newer, cut := noHdr, head
		for cut != noHdr && m.hdrs[cut].ver > h {
			newer, cut = cut, m.hdrs[cut].prev
		}
		if cut == noHdr {
			keep = append(keep, id) // every version is newer than h
			continue
		}
		drop := m.hdrs[cut].prev
		switch {
		case !m.hdrs[cut].deleted():
			m.hdrs[cut].prev = noHdr
		case newer != noHdr:
			drop, m.hdrs[newer].prev = cut, noHdr
		default:
			drop = cut
			gone = append(gone, id)
		}
		home := hdr{chunk: noChunk}
		for v := drop; v != noHdr; {
			next := m.hdrs[v].prev
			if m.hdrs[v].chunk == 0 {
				home = m.hdrs[v]
			}
			m.release(v)
			reclaimed++
			v = next
		}
		if hd := &m.hdrs[head]; home.chunk == 0 && hd.chunk > 0 && hd.n <= home.n {
			m.move(head, 0, home.off)
		}
		if newer != noHdr && m.hdrs[head].prev != noHdr {
			keep = append(keep, id)
		}
	}
	m.chained = keep
	m.nvers -= reclaimed
	if len(gone) > 0 {
		m.dropIDs(gone)
	}
	if reclaimed > 0 {
		m.compact()
	}
	return reclaimed
}

// move copies the version at header h to chunk ci at off and points h
// there. When GC reclaims a row's version in the image slab — the row's
// own slot — it moves the row's newest version from the arena into that
// slot if it fits, so a loaded row rewritten over and over keeps living in
// the slab, and the arena holds only the versions written since the last
// pass.
func (m *Mem) move(h, ci, off int32) {
	hd := &m.hdrs[h]
	copy(m.chunks[ci].buf[off:off+hd.n], m.bytes(h))
	m.chunks[hd.chunk].live -= int(hd.n)
	m.chunks[ci].live += int(hd.n)
	hd.chunk, hd.off = ci, off
}

// compact frees the chunks other than the tail that no retained version
// uses, and evacuates those less than a quarter live: their versions are
// copied to the tail and their headers rewritten in place, so a chain
// never changes shape. Readers decode under the read lock, and compact
// runs under the write lock.
func (m *Mem) compact() {
	evac := false
	for ci := range m.chunks {
		c := &m.chunks[ci]
		if int32(ci) == m.tail || len(c.buf) == 0 {
			continue
		}
		if c.live == 0 {
			m.empty(int32(ci))
		} else if c.live*4 < cap(c.buf) {
			c.evac, evac = true, true
		}
	}
	if !evac {
		return
	}
	for i := range m.hdrs {
		hd := &m.hdrs[i]
		if hd.chunk == noChunk || !m.chunks[hd.chunk].evac {
			continue
		}
		data := m.bytes(int32(i))
		copy(m.room(len(data))[:len(data)], data)
		m.chunks[hd.chunk].live -= len(data)
		hd.chunk, hd.off = m.take(len(data))
	}
	for ci := range m.chunks {
		if m.chunks[ci].evac {
			m.chunks[ci].evac = false
			m.empty(int32(ci))
		}
	}
}

// empty puts arena chunk ci, which holds no retained version, on the
// spare list. It keeps its buffer for reuse while fewer than maxSpare
// spares hold one and it is no larger than maxChunk; otherwise only the
// chunk's slot is reused. An empty image slab is released.
func (m *Mem) empty(ci int32) {
	c := &m.chunks[ci]
	c.live = 0
	if ci == 0 {
		c.buf = nil // the image slab's slot stays the slab's
		return
	}
	kept := 0
	for _, s := range m.spare {
		if m.chunks[s].buf != nil {
			kept++
		}
	}
	if kept < maxSpare && cap(c.buf) <= maxChunk {
		c.buf = c.buf[:0]
		m.spare = append(m.spare, ci) // nextTail takes from the end
	} else {
		c.buf = nil
		m.spare = slices.Insert(m.spare, 0, ci)
	}
}

// dropIDs removes the given ids, each present, from the sorted id slice and
// its heads in one pass: binary searches find them, and the runs between
// them move down once.
func (m *Mem) dropIDs(gone []schema.RowID) {
	slices.Sort(gone)
	ids, heads := m.ids, m.heads
	w, r := 0, 0
	for _, g := range gone {
		j := r + sort.Search(len(ids)-r, func(i int) bool { return ids[r+i] >= g })
		if w != r {
			copy(ids[w:], ids[r:j])
			copy(heads[w:], heads[r:j])
		}
		w += j - r
		r = j
		if r < len(ids) && ids[r] == g {
			r++
		}
	}
	copy(heads[w:], heads[r:])
	w += copy(ids[w:], ids[r:])
	m.ids, m.heads = ids[:w], heads[:w]
}
