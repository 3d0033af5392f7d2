// Package rowstore implements Proteus' row-oriented (n-ary) storage layouts
// (§4.1.1 of the paper): an in-memory store holding each row as a fixed-size
// byte array with a version-chain pointer for multi-versioning, and an
// on-disk store with an index section plus inlined variable-size data that
// buffers updates in memory and applies them as batches.
package rowstore

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// version is one immutable row image. The paper stores an 8-byte pointer to
// the previous version in the final bytes of each row's byte array; under
// Go's GC we keep the pointer alongside the array instead. data is the
// fixed-width slots followed by the version's long strings
// (types.PutFixed), so a reclaimed version takes its strings with it. A
// tombstone has no data.
type version struct {
	data    []byte
	ver     uint64
	prev    *version
	deleted bool
}

// Mem is the in-memory row store. Each row of the partition is a byte array
// sized from the table schema and the store's column slice; updates rewrite
// the whole row and chain the previous version, and GC cuts the chains
// below the oldest snapshot still readable.
type Mem struct {
	mu    sync.RWMutex
	kinds []types.Kind
	offs  []int // byte offset of each column within the row array
	strs  []int // the string columns, whose long values live in the tail
	width int   // width of the fixed slots, where a version's tail begins
	rows  map[schema.RowID]*version
	ids   []schema.RowID // sorted ids of every row in rows, for ordered scans
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
	w := 0
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
		rows:   make(map[schema.RowID]*version),
		layout: storage.Layout{Format: storage.RowFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort},
	}
}

// Layout implements storage.Store.
func (m *Mem) Layout() storage.Layout { return m.layout }

func (m *Mem) encode(vals []types.Value) ([]byte, error) {
	if len(vals) != len(m.kinds) {
		return nil, fmt.Errorf("rowstore: %d values for %d columns", len(vals), len(m.kinds))
	}
	n := m.width
	for _, v := range vals {
		n += types.TailWidth(v)
	}
	buf := make([]byte, m.width, n)
	for i, v := range vals {
		if v.IsNull() {
			continue // zeroed slot encodes NULL-as-zero; workloads do not store NULLs
		}
		buf = types.PutFixed(buf, m.offs[i], v)
	}
	return buf, nil
}

// rewrite builds the array of an update of cur in one allocation of
// exactly the new version's size: cur's fixed slots and the bytes of the
// long strings it keeps are copied, then the new values written. A NULL
// value leaves its column as it was (the zeroed-slot convention of encode
// has nothing to overwrite with).
func (m *Mem) rewrite(cur []byte, cols []schema.ColID, vals []types.Value) []byte {
	kept := func(c int) bool {
		for i, u := range cols {
			if int(u) == c && !vals[i].IsNull() {
				return false
			}
		}
		return true
	}
	n := m.width
	for _, v := range vals {
		n += types.TailWidth(v)
	}
	for _, c := range m.strs {
		if kept(c) {
			n += len(types.StringTail(cur, m.offs[c]))
		}
	}
	data := make([]byte, m.width, n)
	copy(data, cur[:m.width])
	for _, c := range m.strs {
		if kept(c) {
			data = types.CopyString(data, cur, m.offs[c])
		}
	}
	for i, c := range cols {
		data = types.PutFixed(data, m.offs[c], vals[i])
	}
	return data
}

func (m *Mem) insertID(id schema.RowID) {
	i := sort.Search(len(m.ids), func(i int) bool { return m.ids[i] >= id })
	if i < len(m.ids) && m.ids[i] == id {
		return
	}
	m.ids = append(m.ids, 0)
	copy(m.ids[i+1:], m.ids[i:])
	m.ids[i] = id
}

// push installs v as the head of id's chain. A chain growing from one
// version to two joins the chained list.
func (m *Mem) push(id schema.RowID, v *version) {
	if v.prev != nil && v.prev.prev == nil {
		m.chained = append(m.chained, id)
	}
	m.rows[id] = v
	m.nvers++
	m.nbytes += len(v.data)
}

// Insert implements storage.Store.
func (m *Mem) Insert(row schema.Row, ver uint64) error {
	data, err := m.encode(row.Vals)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, ok := m.rows[row.ID]
	if ok && !cur.deleted {
		return fmt.Errorf("rowstore: duplicate row %d", row.ID)
	}
	m.push(row.ID, &version{data: data, ver: ver, prev: cur})
	if !ok {
		m.insertID(row.ID)
	}
	m.live++
	return nil
}

// Update implements storage.Store. Once written, a row array is read-only:
// updates rewrite the entire row and link the previous version (§4.1.1).
func (m *Mem) Update(id schema.RowID, cols []schema.ColID, vals []types.Value, ver uint64) error {
	for _, c := range cols {
		if int(c) >= len(m.kinds) {
			return fmt.Errorf("rowstore: column %d out of range", c)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, ok := m.rows[id]
	if !ok || cur.deleted {
		return fmt.Errorf("rowstore: update of missing row %d", id)
	}
	m.push(id, &version{data: m.rewrite(cur.data, cols, vals), ver: ver, prev: cur})
	return nil
}

// Delete implements storage.Store, writing a tombstone version.
func (m *Mem) Delete(id schema.RowID, ver uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, ok := m.rows[id]
	if !ok || cur.deleted {
		return fmt.Errorf("rowstore: delete of missing row %d", id)
	}
	m.push(id, &version{ver: ver, prev: cur, deleted: true})
	m.live--
	return nil
}

// visible walks the version chain to the newest version at or before snap.
func visible(v *version, snap uint64) *version {
	for v != nil && v.ver > snap {
		v = v.prev
	}
	return v
}

func (m *Mem) decodeCols(data []byte, cols []schema.ColID) []types.Value {
	out := make([]types.Value, len(cols))
	m.decodeColsInto(out, data, cols)
	return out
}

// decodeColsInto decodes into caller-owned scratch (the batch scan path
// reuses one slice across every row).
func (m *Mem) decodeColsInto(dst []types.Value, data []byte, cols []schema.ColID) {
	for i, c := range cols {
		dst[i] = types.GetFixed(data, m.offs[c], m.kinds[c])
	}
}

// Get implements storage.Store.
func (m *Mem) Get(id schema.RowID, cols []schema.ColID, snap uint64) (schema.Row, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v := visible(m.rows[id], snap)
	if v == nil || v.deleted {
		return schema.Row{}, false
	}
	return schema.Row{ID: id, Vals: m.decodeCols(v.data, cols)}, true
}

// ScanBatches implements storage.Store by transposing matching rows with
// lo <= id < hi into pooled batches, in RowID order. The predicate is
// still evaluated against the full decoded row (cell-based access is what
// makes row scans read every attribute — the cost asymmetry of Figure 3),
// but decode scratch and batch buffers are reused across rows.
func (m *Mem) ScanBatches(cols []schema.ColID, pred storage.Pred, lo, hi schema.RowID, snap uint64, maxRows int, fn func(*storage.Batch) bool) {
	if maxRows <= 0 {
		maxRows = storage.DefaultBatchRows
	}
	b := storage.GetBatch(len(cols))
	defer storage.PutBatch(b)
	all := allCols(len(m.kinds))
	sc := memScan{cols: cols, all: all, full: make([]types.Value, len(all)), out: make([]types.Value, len(cols)),
		pred: pred, hi: hi, snap: snap, maxRows: maxRows}
	for more := true; more; {
		lo, more = m.fill(&sc, b, lo)
		if b.NumRows() == 0 || !storage.EmitBatch(b, fn) {
			return
		}
		b.Reset(len(cols))
	}
}

// memScan is one batch scan's parameters and decode scratch.
type memScan struct {
	cols, all []schema.ColID
	full, out []types.Value
	pred      storage.Pred
	hi        schema.RowID
	snap      uint64
	maxRows   int
}

// fill transposes into b the next rows visible at the scan's snapshot with
// from <= id < hi, up to maxRows, returning where the following batch
// resumes and whether more rows may follow. The read
// lock covers one batch only: a consumer holding up a batch never holds up
// the store's writers or GC, and what the scan resumes over is unchanged
// at its snapshot — rows GC dropped were invisible there, rows inserted
// since are newer.
func (m *Mem) fill(sc *memScan, b *storage.Batch, from schema.RowID) (schema.RowID, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	start := sort.Search(len(m.ids), func(i int) bool { return m.ids[i] >= from })
	for _, id := range m.ids[start:] {
		if id >= sc.hi {
			break
		}
		v := visible(m.rows[id], sc.snap)
		if v == nil || v.deleted {
			continue
		}
		m.decodeColsInto(sc.full, v.data, sc.all)
		if !sc.pred.Match(sc.full) {
			continue
		}
		for i, c := range sc.cols {
			sc.out[i] = sc.full[c]
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

// LoadImage implements storage.Store, bulk loading by allocating a
// fixed-size buffer for every row (§4.4).
func (m *Mem) LoadImage(img storage.Image, ver uint64) error {
	if err := img.Check(m.kinds); err != nil {
		return fmt.Errorf("rowstore: %w", err)
	}
	rows := make(map[schema.RowID]*version, len(img.IDs))
	vals := make([]types.Value, len(m.kinds))
	nbytes := 0
	for i, id := range img.IDs {
		for c := range vals {
			vals[c] = img.Cols[c].Value(i)
		}
		data, _ := m.encode(vals)
		rows[id] = &version{data: data, ver: ver} // one each: GC frees them one by one
		nbytes += len(data)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows, m.ids, m.chained = rows, slices.Clone(img.IDs), m.chained[:0]
	m.live, m.nvers, m.nbytes = len(img.IDs), len(img.IDs), nbytes
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
// costs what was written since the last one, not the store's size. It
// returns the number of versions reclaimed.
func (m *Mem) GC(h uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	reclaimed := 0
	var gone []schema.RowID
	keep := m.chained[:0]
	for _, id := range m.chained {
		head := m.rows[id]
		var newer *version
		cut := head
		for cut != nil && cut.ver > h {
			newer, cut = cut, cut.prev
		}
		if cut == nil {
			keep = append(keep, id) // every version is newer than h
			continue
		}
		drop := cut.prev
		switch {
		case !cut.deleted:
			cut.prev = nil
		case newer != nil:
			drop, newer.prev = cut, nil
		default:
			drop = cut
			delete(m.rows, id)
			gone = append(gone, id)
		}
		for v := drop; v != nil; v = v.prev {
			reclaimed++
			m.nbytes -= len(v.data)
		}
		if newer != nil && head.prev != nil {
			keep = append(keep, id)
		}
	}
	m.chained = keep
	m.nvers -= reclaimed
	if len(gone) > 0 {
		m.dropIDs(gone)
	}
	return reclaimed
}

// dropIDs removes the given ids, each present, from the sorted id slice in
// one pass: binary searches find them, and the runs between them move down
// once.
func (m *Mem) dropIDs(gone []schema.RowID) {
	slices.Sort(gone)
	ids := m.ids
	w, r := 0, 0
	for _, g := range gone {
		j := r + sort.Search(len(ids)-r, func(i int) bool { return ids[r+i] >= g })
		if w != r {
			copy(ids[w:], ids[r:j])
		}
		w += j - r
		r = j
		if r < len(ids) && ids[r] == g {
			r++
		}
	}
	w += copy(ids[w:], ids[r:])
	m.ids = ids[:w]
}

func allCols(n int) []schema.ColID {
	out := make([]schema.ColID, n)
	for i := range out {
		out[i] = schema.ColID(i)
	}
	return out
}
