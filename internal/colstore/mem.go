package colstore

import (
	"fmt"
	"sync"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Mem is the in-memory column store. Merged data lives in per-column data
// arrays with index arrays (§4.1.2); inserts, updates and deletes buffer in
// the delta store until MergeDelta folds them in. The layout may maintain a
// total sort order over one column and/or RLE compression.
type Mem struct {
	mu     sync.RWMutex
	kinds  []types.Kind
	base   *base
	delta  *deltaStore
	layout storage.Layout
}

// NewMem creates an empty in-memory column store with the given sort order
// (storage.NoSort for row_id order) and compression setting.
func NewMem(kinds []types.Kind, sortBy schema.ColID, compressed bool) *Mem {
	return &Mem{
		kinds: kinds,
		base:  buildBase(kinds, storage.NewImage(kinds, 0), sortBy, compressed),
		delta: newDelta(),
		layout: storage.Layout{
			Format: storage.ColumnFormat, Tier: storage.MemoryTier,
			SortBy: sortBy, Compressed: compressed,
		},
	}
}

// Layout implements storage.Store.
func (m *Mem) Layout() storage.Layout { return m.layout }

// currentLocked returns the row's newest values (delta first, then base).
func (m *Mem) currentLocked(id schema.RowID) ([]types.Value, bool) {
	if vals, del, ok := m.delta.visible(id, storage.Latest); ok {
		if del {
			return nil, false
		}
		return vals, true
	}
	if p, ok := m.base.pos[id]; ok {
		r := m.base.row(p, allCols(len(m.kinds)))
		return r.Vals, true
	}
	return nil, false
}

// Insert implements storage.Store.
func (m *Mem) Insert(row schema.Row, ver uint64) error {
	if len(row.Vals) != len(m.kinds) {
		return fmt.Errorf("colstore: %d values for %d columns", len(row.Vals), len(m.kinds))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, live := m.currentLocked(row.ID); live {
		return fmt.Errorf("colstore: duplicate row %d", row.ID)
	}
	vals := make([]types.Value, len(row.Vals))
	copy(vals, row.Vals)
	m.delta.put(row.ID, vals, ver, false)
	return nil
}

// Update implements storage.Store.
func (m *Mem) Update(id schema.RowID, cols []schema.ColID, vals []types.Value, ver uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, live := m.currentLocked(id)
	if !live {
		return fmt.Errorf("colstore: update of missing row %d", id)
	}
	next := make([]types.Value, len(cur))
	copy(next, cur)
	for i, c := range cols {
		if int(c) >= len(m.kinds) {
			return fmt.Errorf("colstore: column %d out of range", c)
		}
		next[c] = vals[i]
	}
	m.delta.put(id, next, ver, false)
	return nil
}

// Delete implements storage.Store.
func (m *Mem) Delete(id schema.RowID, ver uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, live := m.currentLocked(id); !live {
		return fmt.Errorf("colstore: delete of missing row %d", id)
	}
	m.delta.put(id, nil, ver, true)
	return nil
}

// Get implements storage.Store. Point reads combine the delta store with
// the column data located through the position index array.
func (m *Mem) Get(id schema.RowID, cols []schema.ColID, snap uint64) (schema.Row, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if vals, del, ok := m.delta.visible(id, snap); ok {
		if del {
			return schema.Row{}, false
		}
		out := make([]types.Value, len(cols))
		for i, c := range cols {
			out[i] = vals[c]
		}
		return schema.Row{ID: id, Vals: out}, true
	}
	p, ok := m.base.pos[id]
	if !ok {
		return schema.Row{}, false
	}
	return m.base.row(p, cols), true
}

// ScanBatches implements storage.Store natively. Only the columns named
// by the predicate and projection are touched (the columnar advantage of
// Figure 3); when the layout is sorted, predicate conditions on the sort
// column narrow the scanned range by binary search, and output arrives in
// sort order with delta rows emitted at their ordered positions. A pending
// delta never takes the scan off the vectorized loop, and contributes only
// its rows in [lo, hi).
func (m *Mem) ScanBatches(cols []schema.ColID, pred storage.Pred, lo, hi schema.RowID, snap uint64, maxRows int, fn func(*storage.Batch) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := batchScan{rowIDs: m.base.rowIDs, cols: m.base.cols, sortBy: m.layout.SortBy, proj: cols, pred: pred, maxRows: maxRows}
	s.narrow(lo, hi, func(i int) types.Value { return m.base.cols[s.sortBy].get(i) })
	s.over, s.live = m.delta.view(lo, hi, snap, pred, s.sortBy)
	s.run(fn)
}

// MorselBounds implements storage.Store. When the layout keeps
// row_id order the base offset array is ascending, so cut points are read
// straight off it; a value-sorted layout scatters ids across positions and
// returns nil (the whole store is one morsel — cross-partition parallelism
// still applies).
func (m *Mem) MorselBounds(targetRows int) []schema.RowID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if targetRows <= 0 || m.layout.SortBy != storage.NoSort {
		return nil
	}
	ids := m.base.rowIDs
	if len(ids) == 0 {
		return nil
	}
	bounds := make([]schema.RowID, 0, len(ids)/targetRows+2)
	for i := 0; i < len(ids); i += targetRows {
		bounds = append(bounds, ids[i])
	}
	bounds = append(bounds, ids[len(ids)-1]+1)
	return bounds
}

// LoadImage implements storage.Store, bulk loading into fresh column
// arrays.
func (m *Mem) LoadImage(img storage.Image, ver uint64) error {
	if err := img.Check(m.kinds); err != nil {
		return fmt.Errorf("colstore: %w", err)
	}
	nb := buildBase(m.kinds, img, m.layout.SortBy, m.layout.Compressed)
	m.mu.Lock()
	m.base = nb
	m.delta.clear()
	m.mu.Unlock()
	return nil
}

// MergeDelta folds buffered delta updates into a new version of the column
// data (§4.1.2), producing fresh merged arrays and clearing the delta.
func (m *Mem) MergeDelta(ver uint64) error {
	return m.LoadImage(storage.Capture(m, m.kinds, ver), ver)
}

// DeltaRows reports the number of buffered delta entries.
func (m *Mem) DeltaRows() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.delta.size()
}

// Stats implements storage.Store.
func (m *Mem) Stats() storage.Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	liveDiff, versions, deltaBytes := m.delta.tally(m.base.pos)
	bytes := 8*len(m.base.rowIDs) + deltaBytes // offset array + delta
	encoded := 0
	for _, c := range m.base.cols {
		cb := c.bytes()
		bytes += cb
		if c.enc != encPlain {
			encoded += cb
		}
	}
	return storage.Stats{
		Rows:         len(m.base.rowIDs) + liveDiff,
		Bytes:        bytes,
		Versions:     len(m.base.rowIDs) + versions,
		DeltaRows:    m.delta.size(),
		EncodedBytes: encoded,
	}
}

func allCols(n int) []schema.ColID {
	out := make([]schema.ColID, n)
	for i := range out {
		out[i] = schema.ColID(i)
	}
	return out
}
