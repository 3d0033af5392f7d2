// Package storage defines the contract every partition storage layout in
// Proteus implements: the Store interface with versioned reads, writes and
// scans with predicate/projection pushdown, plus the Layout descriptor
// (format x tier x sort x compression) the adaptive storage advisor reasons
// about (§2.1, §4.1 of the paper).
package storage

import (
	"math"
	"strconv"

	"proteus/internal/schema"
	"proteus/internal/types"
)

// Format is a storage format: row-oriented (n-ary) or column-oriented
// (decomposition storage model).
type Format uint8

const (
	// RowFormat stores tuples contiguously (§4.1.1).
	RowFormat Format = iota
	// ColumnFormat stores attributes contiguously (§4.1.2).
	ColumnFormat
)

// String names the format.
func (f Format) String() string {
	if f == RowFormat {
		return "row"
	}
	return "column"
}

// Tier is a storage tier.
type Tier uint8

const (
	// MemoryTier keeps partition data in RAM.
	MemoryTier Tier = iota
	// DiskTier keeps partition data on the (simulated) disk.
	DiskTier
)

// String names the tier.
func (t Tier) String() string {
	if t == MemoryTier {
		return "memory"
	}
	return "disk"
}

// NoSort marks a layout with no maintained sort order.
const NoSort schema.ColID = -1

// Layout fully describes how one replica of a partition is stored: its
// format, tier, optional sort column and optional compression (§2.1).
type Layout struct {
	Format     Format
	Tier       Tier
	SortBy     schema.ColID // local column index, or NoSort
	Compressed bool         // run-length encoding (column format only)
}

// String renders the layout, e.g. "column/memory/sorted(1)/rle".
func (l Layout) String() string { return string(l.AppendTo(nil)) }

// AppendTo appends the String rendering to dst, for callers that build a
// key in a buffer of their own.
func (l Layout) AppendTo(dst []byte) []byte {
	dst = append(dst, l.Format.String()...)
	dst = append(dst, '/')
	dst = append(dst, l.Tier.String()...)
	if l.SortBy != NoSort {
		dst = append(dst, "/sorted("...)
		dst = strconv.AppendInt(dst, int64(l.SortBy), 10)
		dst = append(dst, ')')
	}
	if l.Compressed {
		dst = append(dst, "/rle"...)
	}
	return dst
}

// DefaultRowLayout is the OLTP-friendly layout: rows in memory.
func DefaultRowLayout() Layout { return Layout{Format: RowFormat, Tier: MemoryTier, SortBy: NoSort} }

// DefaultColumnLayout is the OLAP-friendly layout: columns in memory.
func DefaultColumnLayout() Layout {
	return Layout{Format: ColumnFormat, Tier: MemoryTier, SortBy: NoSort}
}

// CmpOp is a comparison operator usable in pushed-down predicates.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String renders the operator.
func (o CmpOp) String() string {
	switch o {
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// Eval applies the operator to the comparison result of two values. As in
// SQL, a comparison with NULL on either side is false for every operator,
// so a predicate never selects a NULL cell (and zone-map pruning, which
// ignores NULLs, cannot change an answer).
func (o CmpOp) Eval(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c := types.Compare(a, b)
	switch o {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}

// Cond is one conjunct of a pushed-down predicate, comparing a (store-local)
// column against a constant.
type Cond struct {
	Col schema.ColID
	Op  CmpOp
	Val types.Value
}

// Pred is a conjunction of conditions pushed into storage scans. A nil or
// empty Pred matches every row.
type Pred []Cond

// Match reports whether a fully materialized local row satisfies the
// predicate. vals is indexed by store-local column position.
func (p Pred) Match(vals []types.Value) bool {
	for _, c := range p {
		if int(c.Col) >= len(vals) || !c.Op.Eval(vals[c.Col], c.Val) {
			return false
		}
	}
	return true
}

// Columns returns the distinct local columns referenced by the predicate.
func (p Pred) Columns() []schema.ColID {
	seen := map[schema.ColID]bool{}
	var out []schema.ColID
	for _, c := range p {
		if !seen[c.Col] {
			seen[c.Col] = true
			out = append(out, c.Col)
		}
	}
	return out
}

// Stats summarizes a store's physical footprint for the ASA's space and
// cost accounting (§5.1).
type Stats struct {
	Rows       int // live rows at the latest version
	Bytes      int // resident bytes (memory tier) or serialized bytes (disk)
	Versions   int // total row versions retained (MVCC chains + delta)
	DeltaRows  int // buffered, unmerged delta-store rows (column format)
	DiskReads  int // cumulative simulated block reads (disk tier)
	DiskWrites int // cumulative simulated block writes (disk tier)
	// EncodedBytes is the portion of Bytes held in encoded column form
	// (RLE/dictionary/frame-of-reference); the cost model uses the encoded
	// fraction as a scan feature.
	EncodedBytes int
}

// MinRow and MaxRow bound every row id: a scan of [MinRow, MaxRow) reads
// the whole store.
const (
	MinRow schema.RowID = math.MinInt64
	MaxRow schema.RowID = math.MaxInt64
)

// Store is the uniform interface over every storage layout (§4.3:
// "storage-agnostic data accesses ... use cell-based operations"). All row
// identifiers and column positions are store-local: a store covers a
// contiguous range of row_ids and a contiguous slice of the table's columns,
// and the partition layer maps global coordinates into store coordinates.
//
// Versioning: every mutation carries the partition's commit version.
// Reads specify the snapshot version they must observe; a store returns the
// newest data with version <= the requested snapshot (multi-versioning per
// §4.1.1/§4.1.2).
type Store interface {
	// Layout reports how the data is stored.
	Layout() Layout

	// Insert adds a new row. Vals must cover every store column.
	Insert(row schema.Row, version uint64) error
	// Update overwrites the given columns of an existing row.
	Update(id schema.RowID, cols []schema.ColID, vals []types.Value, version uint64) error
	// Delete removes a row as of version.
	Delete(id schema.RowID, version uint64) error

	// Get reads the projection cols of one row at the snapshot version.
	Get(id schema.RowID, cols []schema.ColID, version uint64) (schema.Row, bool)
	// ScanBatches streams the rows with lo <= id < hi that are live at the
	// snapshot version and satisfy pred, projected to cols, as columnar
	// batches of at most maxRows physical rows (maxRows <= 0 means
	// DefaultBatchRows); [MinRow, MaxRow) is the whole store. Rows arrive
	// in sort order when the layout maintains a sort, in unspecified order
	// otherwise. Only selected rows (per Batch.Sel) are part of the result.
	// The batch and any views inside it are valid only until fn returns;
	// fn returning false stops the scan.
	ScanBatches(cols []schema.ColID, pred Pred, lo, hi schema.RowID, version uint64, maxRows int, fn func(*Batch) bool)
	// MorselBounds returns ascending row-id cut points splitting the live
	// rows into runs of roughly targetRows each, the morsel executor's
	// units. A nil result means the store cannot split itself cheaply (a
	// value-sorted layout scatters row ids; a disk store reads whole
	// images); callers then treat the whole store as one morsel.
	MorselBounds(targetRows int) []schema.RowID

	// LoadImage bulk-loads an image, replacing current contents (§4.4 bulk
	// load). The store copies what it keeps; img stays the caller's.
	LoadImage(img Image, version uint64) error

	// Stats reports the store's physical footprint.
	Stats() Stats
}
