// Package partition implements Proteus' unit of storage-layout decisions
// (§2.1 of the paper): a partition is a contiguous range of rows and columns
// of one table, stored in one layout, with a zone map and a version counter.
// The package also implements the layout-change mechanisms of §4.4 —
// format/tier conversion via consistent-snapshot bulk loads, horizontal and
// vertical splits, and merges.
package partition

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/colstore"
	"proteus/internal/disksim"
	"proteus/internal/rowstore"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
	"proteus/internal/zonemap"
)

// ID uniquely identifies a partition across the cluster.
type ID uint64

// Bounds delimits the table cells a partition covers: rows in
// [RowStart, RowEnd) and columns in [ColStart, ColEnd), both over the
// owning table.
type Bounds struct {
	Table    schema.TableID
	RowStart schema.RowID
	RowEnd   schema.RowID
	ColStart schema.ColID
	ColEnd   schema.ColID
}

// String renders the bounds for debugging.
func (b Bounds) String() string {
	return fmt.Sprintf("t%d[r%d:%d,c%d:%d]", b.Table, b.RowStart, b.RowEnd, b.ColStart, b.ColEnd)
}

// ContainsRow reports whether a row id falls inside the bounds.
func (b Bounds) ContainsRow(id schema.RowID) bool { return id >= b.RowStart && id < b.RowEnd }

// ContainsCol reports whether a global column id falls inside the bounds.
func (b Bounds) ContainsCol(c schema.ColID) bool { return c >= b.ColStart && c < b.ColEnd }

// OverlapsRows reports whether [lo, hi) intersects the row range.
func (b Bounds) OverlapsRows(lo, hi schema.RowID) bool { return lo < b.RowEnd && hi > b.RowStart }

// NumCols reports the number of covered columns.
func (b Bounds) NumCols() int { return int(b.ColEnd - b.ColStart) }

// NumRows reports the size of the covered row range.
func (b Bounds) NumRows() int64 { return int64(b.RowEnd - b.RowStart) }

// LocalCol translates a global column id into the partition-local index.
func (b Bounds) LocalCol(c schema.ColID) schema.ColID { return c - b.ColStart }

// GlobalCol translates a partition-local column index back to the table's.
func (b Bounds) GlobalCol(c schema.ColID) schema.ColID { return c + b.ColStart }

// Factory builds stores for any layout, binding the disk tier to a device.
type Factory struct {
	// Dev backs disk-tier stores; required if any disk layout is built.
	Dev *disksim.Device
}

// NewStore creates an empty store with the given layout over the
// partition-local column kinds. The layout's SortBy is partition-local.
func (f Factory) NewStore(kinds []types.Kind, l storage.Layout) storage.Store {
	switch {
	case l.Format == storage.RowFormat && l.Tier == storage.MemoryTier:
		return rowstore.NewMem(kinds)
	case l.Format == storage.RowFormat && l.Tier == storage.DiskTier:
		return rowstore.NewDisk(kinds, f.Dev)
	case l.Format == storage.ColumnFormat && l.Tier == storage.MemoryTier:
		return colstore.NewMem(kinds, l.SortBy, l.Compressed)
	default:
		return colstore.NewDisk(kinds, f.Dev, l.SortBy, l.Compressed)
	}
}

// Partition is one replica of a partition's data in a concrete layout.
// Mutations and reads take partition-local column ids produced by
// Bounds.LocalCol; the site/executor layer performs the translation.
type Partition struct {
	ID     ID
	Bounds Bounds

	mu    sync.RWMutex // guards store swaps (layout changes)
	store storage.Store
	kinds []types.Kind
	zm    *zonemap.ZoneMap

	version  atomic.Uint64 // last committed (installed) version
	reserved atomic.Uint64 // highest version handed out by ReserveNext
}

// New creates an empty partition with the given layout. kinds are the
// partition-local column kinds (the slice [ColStart, ColEnd) of the table).
func New(id ID, b Bounds, kinds []types.Kind, l storage.Layout, f Factory) *Partition {
	return &Partition{
		ID:     id,
		Bounds: b,
		store:  f.NewStore(kinds, l),
		kinds:  kinds,
		zm:     zonemap.New(kinds),
	}
}

// Layout reports the partition's current storage layout.
func (p *Partition) Layout() storage.Layout {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.store.Layout()
}

// Kinds returns the partition-local column kinds.
func (p *Partition) Kinds() []types.Kind { return p.kinds }

// Version reports the last committed version.
func (p *Partition) Version() uint64 { return p.version.Load() }

// SetVersion records a newly committed version (monotone).
func (p *Partition) SetVersion(v uint64) {
	for {
		cur := p.version.Load()
		if v <= cur || p.version.CompareAndSwap(cur, v) {
			return
		}
	}
}

// NextVersion atomically reserves the next commit version.
func (p *Partition) NextVersion() uint64 { return p.version.Add(1) }

// ReserveNext hands out the next commit version without making it visible.
// The reservation survives until a matching SetVersion installs it, so a
// commit pipeline can release partition locks before the batched install
// runs while later transactions still get strictly increasing versions.
func (p *Partition) ReserveNext() uint64 {
	for {
		cur := p.reserved.Load()
		next := cur
		if v := p.version.Load(); v > next {
			next = v
		}
		next++
		if p.reserved.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// ZoneMap exposes the partition's zone map.
func (p *Partition) ZoneMap() *zonemap.ZoneMap { return p.zm }

// Insert adds a row (local column order) at the given version. The zone
// map is widened before the store holds the row, so it covers every value
// a store captured at any moment can return (scans drop the conjuncts it
// proves on that ground).
func (p *Partition) Insert(row schema.Row, ver uint64) error {
	if !p.Bounds.ContainsRow(row.ID) {
		return fmt.Errorf("partition %d: row %d outside bounds %v", p.ID, row.ID, p.Bounds)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.zm.Observe(row.Vals)
	p.zm.ObserveID(row.ID)
	return p.store.Insert(row, ver)
}

// Update rewrites the given local columns of a row at the given version,
// widening the zone map first, as Insert does.
func (p *Partition) Update(id schema.RowID, cols []schema.ColID, vals []types.Value, ver uint64) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.zm.ObserveCols(cols, vals)
	return p.store.Update(id, cols, vals, ver)
}

// Delete removes a row at the given version.
func (p *Partition) Delete(id schema.RowID, ver uint64) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.store.Delete(id, ver)
}

// Get reads a projection of one row at the snapshot version.
func (p *Partition) Get(id schema.RowID, cols []schema.ColID, snap uint64) (schema.Row, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.store.Get(id, cols, snap)
}

// Morsel is one fixed-size scan unit: the rows of this partition with
// Lo <= id < Hi. Morsels are the scheduling quantum of the parallel scan
// executor; workers pull them independently.
type Morsel struct {
	Lo, Hi schema.RowID
}

// Morsels splits the partition's populated row range into units of roughly
// targetRows each. Stores that cannot address id ranges cheaply (value-
// sorted layouts, disk stores) yield a single morsel covering the populated
// span — parallelism then comes from scanning partitions concurrently. An
// empty partition yields nil.
func (p *Partition) Morsels(targetRows int) []Morsel {
	p.mu.RLock()
	st := p.store
	p.mu.RUnlock()

	lo, hi := p.Bounds.RowStart, p.Bounds.RowEnd
	slo, shi, populated := p.zm.IDSpan()
	if populated {
		// Clip to the span that actually holds rows: partition bounds
		// default to the table's MaxRows and are often far wider.
		if slo > lo {
			lo = slo
		}
		if shi+1 < hi {
			hi = shi + 1
		}
	} else if p.zm.Rows() == 0 && st.Stats().Rows == 0 {
		return nil
	}
	if lo >= hi {
		return nil
	}

	bounds := st.MorselBounds(targetRows)
	if len(bounds) < 2 {
		return []Morsel{{Lo: lo, Hi: hi}}
	}
	// Stretch the outer cuts to the populated span so rows outside the
	// store's current id range (e.g. unmerged column-delta inserts) stay
	// covered by exactly one morsel.
	if bounds[0] > lo {
		bounds[0] = lo
	}
	if bounds[len(bounds)-1] < hi {
		bounds[len(bounds)-1] = hi
	}
	out := make([]Morsel, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] < bounds[i+1] {
			out = append(out, Morsel{Lo: bounds[i], Hi: bounds[i+1]})
		}
	}
	return out
}

// StoreSnapshot returns the current store object. A captured store stays
// valid for snapshot reads even if a concurrent layout change swaps
// p.store: every version at or below the read snapshot is already in it,
// and later mutations carry newer versions that the snapshot ignores.
func (p *Partition) StoreSnapshot() storage.Store {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.store
}

// ScanBatches streams the matching rows of the whole partition as
// columnar batches. The zone map short-circuits scans whose predicate
// provably matches nothing in this partition (§4.1.3).
func (p *Partition) ScanBatches(cols []schema.ColID, pred storage.Pred, snap uint64, maxRows int, fn func(*storage.Batch) bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.zm.CanSkip(pred) {
		return
	}
	p.store.ScanBatches(cols, pred, storage.MinRow, storage.MaxRow, snap, maxRows, fn)
}

// LoadImage bulk-loads an image (replacing the partition's contents) and
// rebuilds the zone map. The image stays the caller's.
func (p *Partition) LoadImage(img storage.Image, ver uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.store.LoadImage(img, ver); err != nil {
		return err
	}
	p.zm.Rebuild(img)
	p.SetVersion(ver)
	return nil
}

// Image captures every live row at the given version. The caller keeps
// the state still across the scan: a fixed snapshot version, or the
// engine's partition lock plus a commit barrier at storage.Latest.
func (p *Partition) Image(snap uint64) storage.Image {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return storage.Capture(p.store, p.kinds, snap)
}

// Load bulk-loads boxed rows, for callers that hold rows rather than an
// image.
func (p *Partition) Load(rows []schema.Row, ver uint64) error {
	img, err := storage.ImageOf(p.kinds, rows)
	if err != nil {
		return err
	}
	return p.LoadImage(img, ver)
}

// ExtractAll boxes every live row at the given version, ordered by id.
func (p *Partition) ExtractAll(snap uint64) []schema.Row { return p.Image(snap).Rows() }

// Stats reports the underlying store's footprint.
func (p *Partition) Stats() storage.Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.store.Stats()
}

// GC reclaims the row versions no snapshot at or above h can observe
// (rowstore.Mem.GC) and reports how many it reclaimed and how many the
// store retains. Only the in-memory row store keeps version chains; any
// other layout reports zeros.
func (p *Partition) GC(h uint64) (reclaimed, retained int) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	m, ok := p.store.(*rowstore.Mem)
	if !ok {
		return 0, 0
	}
	reclaimed = m.GC(h)
	return reclaimed, m.Stats().Versions
}

// ChangeLayout converts the partition to a new layout by capturing an
// image at version snap and bulk-loading it into a fresh store (§4.4).
// The write lock is held across the capture, rebuild and swap: a mutation
// that slipped between a released capture and the swap
// (e.g. a replica applying a redo record, which does not hold the
// engine's partition lock) would land in the discarded store and be lost
// even though the copy's version advanced past it. Readers holding a
// StoreSnapshot are unaffected.
func (p *Partition) ChangeLayout(to storage.Layout, f Factory, snap uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	img := storage.Capture(p.store, p.kinds, snap)
	ns := f.NewStore(p.kinds, to)
	if err := ns.LoadImage(img, snap); err != nil {
		return err
	}
	p.store = ns
	p.zm.Rebuild(img)
	return nil
}

// Maintain performs background maintenance appropriate to the layout:
// merging column delta stores and flushing row disk buffers once they
// exceed threshold buffered rows. It reports the number of buffered rows
// folded in and the time the fold took, so maintenance cost can be
// attributed to the layout's write cost model.
//
// The write lock is held across the fold: MergeDelta/Flush rebuild the
// store from a captured image and clear the buffered delta, so a write
// that landed between the capture and the clear would vanish. Background
// maintenance runs without the engine's partition locks, so the
// partition lock is the only thing serializing it against commit
// staging and replica applies. snap must cover every buffered row —
// with group commit, staged rows live above the installed version until
// a commit flush installs them, so callers folding live copies pass
// storage.Latest rather than p.Version().
func (p *Partition) Maintain(snap uint64, threshold int) (int, time.Duration, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.store
	start := time.Now()
	switch s := st.(type) {
	case interface {
		DeltaRows() int
		MergeDelta(uint64) error
	}:
		if n := s.DeltaRows(); n >= threshold {
			err := s.MergeDelta(snap)
			return n, time.Since(start), err
		}
	case *rowstore.Disk:
		if n := s.BufferedRows(); n >= threshold {
			err := s.Flush(snap)
			return n, time.Since(start), err
		}
	}
	return 0, 0, nil
}
