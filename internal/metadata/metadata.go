// Package metadata implements the ASA's partition-metadata directory
// (§5.1 of the paper): for every partition it tracks bounds, the master
// site and layout, replica sites and layouts, access frequencies over two
// time scales (via forecast.Tracker), a zone-map reference, and the
// partitions frequently co-accessed with it. It also maintains per-table
// column statistics (average sizes, access rates) used for space and cost
// estimation.
package metadata

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"proteus/internal/forecast"
	"proteus/internal/partition"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/zonemap"
)

// Replica records where one copy of a partition lives and how it is stored.
type Replica struct {
	Site   simnet.SiteID
	Layout storage.Layout
}

// PartitionMeta is the directory entry for one partition.
type PartitionMeta struct {
	ID     partition.ID
	Bounds partition.Bounds

	mu       sync.RWMutex
	master   Replica
	replicas []Replica // non-master copies

	// Tracker records update/point-read/scan frequencies at two
	// granularities (§5.1 item iii).
	Tracker *forecast.Tracker
	// ZoneMap references the master copy's zone map (§5.1 item iv).
	ZoneMap *zonemap.ZoneMap

	coMu     sync.Mutex
	coAccess map[partition.ID]float64 // decayed co-access weights (item v)
}

// Master returns the master replica descriptor.
func (m *PartitionMeta) Master() Replica {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.master
}

// Replicas returns the non-master replicas.
func (m *PartitionMeta) Replicas() []Replica {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]Replica(nil), m.replicas...)
}

// AllCopies returns the master followed by every replica.
func (m *PartitionMeta) AllCopies() []Replica {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Replica, 0, 1+len(m.replicas))
	out = append(out, m.master)
	return append(out, m.replicas...)
}

// SetMaster changes the master placement/layout.
func (m *PartitionMeta) SetMaster(r Replica) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.master = r
}

// AddReplica records a new replica.
func (m *PartitionMeta) AddReplica(r Replica) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.replicas = append(m.replicas, r)
}

// RemoveReplica drops the replica at the site. It reports whether one was
// removed.
func (m *PartitionMeta) RemoveReplica(site simnet.SiteID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, r := range m.replicas {
		if r.Site == site {
			m.replicas = append(m.replicas[:i], m.replicas[i+1:]...)
			return true
		}
	}
	return false
}

// SetReplicaLayout updates the stored layout of the copy at the site
// (master or replica). It reports whether the site held a copy.
func (m *PartitionMeta) SetReplicaLayout(site simnet.SiteID, l storage.Layout) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.master.Site == site {
		m.master.Layout = l
		return true
	}
	for i := range m.replicas {
		if m.replicas[i].Site == site {
			m.replicas[i].Layout = l
			return true
		}
	}
	return false
}

// HasCopyAt reports whether the site stores any copy.
func (m *PartitionMeta) HasCopyAt(site simnet.SiteID) bool {
	_, ok := m.CopyAt(site)
	return ok
}

// CopyAt returns the copy the site stores (master or replica), if any.
func (m *PartitionMeta) CopyAt(site simnet.SiteID) (Replica, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.master.Site == site {
		return m.master, true
	}
	for _, r := range m.replicas {
		if r.Site == site {
			return r, true
		}
	}
	return Replica{}, false
}

// RecordCoAccess strengthens the co-access edge to another partition
// (updates or joins touching both in one request).
func (m *PartitionMeta) RecordCoAccess(other partition.ID, w float64) {
	m.coMu.Lock()
	defer m.coMu.Unlock()
	if m.coAccess == nil {
		m.coAccess = make(map[partition.ID]float64)
	}
	m.coAccess[other] += w
}

// CoAccessed returns the partitions most co-accessed with this one,
// strongest first, up to limit.
func (m *PartitionMeta) CoAccessed(limit int) []partition.ID {
	m.coMu.Lock()
	defer m.coMu.Unlock()
	type kv struct {
		id partition.ID
		w  float64
	}
	all := make([]kv, 0, len(m.coAccess))
	for id, w := range m.coAccess {
		all = append(all, kv{id, w})
	}
	slices.SortFunc(all, func(a, b kv) int { return cmp.Compare(b.w, a.w) })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	out := make([]partition.ID, len(all))
	for i, e := range all {
		out[i] = e.id
	}
	return out
}

// ColStats aggregates one column's statistics for a table (§5.1).
type ColStats struct {
	AvgSize float64
	Reads   int64
	Writes  int64
}

// Directory is the ASA's concurrent partition-metadata table.
type Directory struct {
	mu      sync.RWMutex
	parts   map[partition.ID]*PartitionMeta
	byTable map[schema.TableID][]*PartitionMeta
	nextID  uint64

	colMu    sync.Mutex
	colStats map[schema.TableID][]ColStats

	trackerCfg forecast.Config
}

// NewDirectory creates an empty directory; trackers for new partitions use
// cfg.
func NewDirectory(cfg forecast.Config) *Directory {
	return &Directory{
		parts:      make(map[partition.ID]*PartitionMeta),
		byTable:    make(map[schema.TableID][]*PartitionMeta),
		colStats:   make(map[schema.TableID][]ColStats),
		trackerCfg: cfg,
	}
}

// AllocID reserves a fresh partition ID.
func (d *Directory) AllocID() partition.ID {
	return partition.ID(atomic.AddUint64(&d.nextID, 1))
}

// NewMeta builds a partition's metadata entry without registering it. The
// zone map may be nil.
func (d *Directory) NewMeta(id partition.ID, b partition.Bounds, master Replica, zm *zonemap.ZoneMap) *PartitionMeta {
	return &PartitionMeta{
		ID: id, Bounds: b, master: master,
		Tracker: forecast.NewTracker(d.trackerCfg),
		ZoneMap: zm,
	}
}

// Register adds a partition's metadata. The zone map may be nil.
func (d *Directory) Register(id partition.ID, b partition.Bounds, master Replica, zm *zonemap.ZoneMap) *PartitionMeta {
	m := d.NewMeta(id, b, master, zm)
	d.Replace(nil, m)
	return m
}

// Replace removes the partitions old and adds the entries add in one step
// under the directory lock, so a split or merge never shows a reader a row
// range that no partition covers, or one that two cover. Each touched
// table's pieces are rebuilt into a fresh slice ordered by (RowStart,
// ColStart): lookups, which far outnumber replacements, then never sort.
func (d *Directory) Replace(old []partition.ID, add ...*PartitionMeta) {
	d.mu.Lock()
	defer d.mu.Unlock()
	touched := make(map[schema.TableID]bool, 1)
	for _, id := range old {
		if m, ok := d.parts[id]; ok {
			delete(d.parts, id)
			touched[m.Bounds.Table] = true
		}
	}
	for _, m := range add {
		d.parts[m.ID] = m
		touched[m.Bounds.Table] = true
	}
	for table := range touched {
		var next []*PartitionMeta
		for _, m := range d.byTable[table] {
			if d.parts[m.ID] == m {
				next = append(next, m)
			}
		}
		for _, m := range add {
			if m.Bounds.Table == table {
				next = append(next, m)
			}
		}
		slices.SortFunc(next, func(a, b *PartitionMeta) int {
			if c := cmp.Compare(a.Bounds.RowStart, b.Bounds.RowStart); c != 0 {
				return c
			}
			return cmp.Compare(a.Bounds.ColStart, b.Bounds.ColStart)
		})
		d.byTable[table] = next
	}
}

// Get looks up one partition's metadata.
func (d *Directory) Get(id partition.ID) (*PartitionMeta, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	m, ok := d.parts[id]
	return m, ok
}

// appendFor appends to dst the partitions of a table whose row range
// overlaps [lo, hi) and that cover at least one of cols (all columns if
// cols is empty), ordered by (RowStart, ColStart).
func (d *Directory) appendFor(dst []*PartitionMeta, table schema.TableID, lo, hi schema.RowID, cols []schema.ColID) []*PartitionMeta {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, m := range d.byTable[table] {
		if m.Bounds.RowStart >= hi {
			break // sorted by RowStart: no later piece overlaps
		}
		if !m.Bounds.OverlapsRows(lo, hi) || !coversAny(m.Bounds, cols) {
			continue
		}
		dst = append(dst, m)
	}
	return dst
}

func coversAny(b partition.Bounds, cols []schema.ColID) bool {
	if len(cols) == 0 {
		return true
	}
	for _, c := range cols {
		if b.ContainsCol(c) {
			return true
		}
	}
	return false
}

// PartitionsFor returns the partitions of a table whose row range overlaps
// [lo, hi) and that cover at least one of cols (all columns if cols is
// empty), ordered by (RowStart, ColStart).
func (d *Directory) PartitionsFor(table schema.TableID, lo, hi schema.RowID, cols []schema.ColID) []*PartitionMeta {
	return d.appendFor(nil, table, lo, hi, cols)
}

// AppendForRow appends to dst the partitions covering a single row across
// the given columns (several when the row range is vertically
// partitioned), ordered by ColStart. It allocates only when dst is full.
func (d *Directory) AppendForRow(dst []*PartitionMeta, table schema.TableID, row schema.RowID, cols []schema.ColID) []*PartitionMeta {
	return d.appendFor(dst, table, row, row+1, cols)
}

// PartitionForRow is AppendForRow into a new slice, for callers outside
// the operation path (the benchmark module's workload description).
func (d *Directory) PartitionForRow(table schema.TableID, row schema.RowID, cols []schema.ColID) []*PartitionMeta {
	return d.AppendForRow(nil, table, row, cols)
}

// TablePartitions returns every partition of a table.
func (d *Directory) TablePartitions(table schema.TableID) []*PartitionMeta {
	return d.PartitionsFor(table, 0, schema.RowID(1)<<62, nil)
}

// All returns every registered partition.
func (d *Directory) All() []*PartitionMeta {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*PartitionMeta, 0, len(d.parts))
	for _, m := range d.parts {
		out = append(out, m)
	}
	slices.SortFunc(out, func(a, b *PartitionMeta) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// InitColStats sizes a table's column statistics.
func (d *Directory) InitColStats(table schema.TableID, avgSizes []float64) {
	d.colMu.Lock()
	defer d.colMu.Unlock()
	cs := make([]ColStats, len(avgSizes))
	for i, s := range avgSizes {
		cs[i].AvgSize = s
	}
	d.colStats[table] = cs
}

// RecordColumnAccess bumps read/write counters for the given columns.
func (d *Directory) RecordColumnAccess(table schema.TableID, cols []schema.ColID, write bool) {
	d.colMu.Lock()
	defer d.colMu.Unlock()
	cs := d.colStats[table]
	for _, c := range cols {
		if int(c) >= len(cs) {
			continue
		}
		if write {
			cs[c].Writes++
		} else {
			cs[c].Reads++
		}
	}
}

// ColumnStats returns a copy of a table's column statistics.
func (d *Directory) ColumnStats(table schema.TableID) []ColStats {
	d.colMu.Lock()
	defer d.colMu.Unlock()
	return append([]ColStats(nil), d.colStats[table]...)
}

// AvgRowBytes estimates the encoded size of one row restricted to cols
// (all columns when cols is empty).
func (d *Directory) AvgRowBytes(table schema.TableID, cols []schema.ColID) int {
	d.colMu.Lock()
	defer d.colMu.Unlock()
	cs := d.colStats[table]
	total := 0.0
	if len(cols) == 0 {
		for _, c := range cs {
			total += c.AvgSize
		}
	} else {
		for _, c := range cols {
			if int(c) < len(cs) {
				total += cs[c].AvgSize
			}
		}
	}
	return int(total)
}

// Validate checks the directory's tiling invariant for a table: every
// (row, col) cell inside the given row bound is covered by exactly one
// partition. Used by tests and by recovery sanity checks.
func (d *Directory) Validate(table schema.TableID, rowEnd schema.RowID, nCols int) error {
	parts := d.TablePartitions(table)
	// Collect row boundaries and check column coverage per row segment.
	for _, m := range parts {
		if m.Bounds.ColStart < 0 || int(m.Bounds.ColEnd) > nCols {
			return fmt.Errorf("partition %d columns out of range: %v", m.ID, m.Bounds)
		}
	}
	type seg struct{ lo, hi schema.RowID }
	var segs []seg
	bounds := map[schema.RowID]bool{0: true, rowEnd: true}
	for _, m := range parts {
		if m.Bounds.RowStart < rowEnd {
			bounds[m.Bounds.RowStart] = true
		}
		if m.Bounds.RowEnd < rowEnd {
			bounds[m.Bounds.RowEnd] = true
		}
	}
	var cuts []schema.RowID
	for b := range bounds {
		cuts = append(cuts, b)
	}
	slices.Sort(cuts)
	for i := 0; i+1 < len(cuts); i++ {
		segs = append(segs, seg{cuts[i], cuts[i+1]})
	}
	for _, s := range segs {
		cover := make([]int, nCols)
		for _, m := range parts {
			if m.Bounds.OverlapsRows(s.lo, s.hi) {
				if m.Bounds.RowStart > s.lo || m.Bounds.RowEnd < s.hi {
					return fmt.Errorf("partition %d splits segment [%d,%d): %v", m.ID, s.lo, s.hi, m.Bounds)
				}
				for c := m.Bounds.ColStart; c < m.Bounds.ColEnd; c++ {
					cover[c]++
				}
			}
		}
		for c, n := range cover {
			if n != 1 {
				return fmt.Errorf("table %d rows [%d,%d) column %d covered %d times", table, s.lo, s.hi, c, n)
			}
		}
	}
	return nil
}
