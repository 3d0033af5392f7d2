package storage

// Vectorized batch execution (§4.1). A row-at-a-time scan contract pays
// per-tuple materialization, interface-call overhead and boxed types.Value
// allocation on every row, which flattens the row-vs-column cost asymmetry
// the ASA reasons about. This file defines the columnar Batch that flows
// through the scan pipeline instead: per-column typed vectors, a selection
// vector naming the rows that passed the predicate, and a row-id vector.
// Stores produce batches natively (colstore: zero-copy views over its
// column arrays; rowstore: transposition into pooled buffers), and
// Store.ScanBatches over a row-id range is the one way any store is read
// in bulk.
//
// Batches are recycled through a sync.Pool; the exec.batches.* counters
// (batches emitted, rows scanned/selected, pool gets/hits/puts) are
// process-wide atomics surfaced by the engine's metrics snapshot.

import (
	"sort"
	"sync"
	"sync/atomic"

	"proteus/internal/schema"
	"proteus/internal/types"
)

// DefaultBatchRows is the batch capacity used when a caller passes
// maxRows <= 0: large enough to amortize per-batch overhead, small enough
// to stay cache-resident.
const DefaultBatchRows = 256

// VecEnc identifies how a vector's payload is physically encoded. Encoded
// vectors are zero-copy views over a column store's encoded arrays; kernels
// that understand the encoding (FilterVec, the exec aggregate folds) work
// on the raw codes and run lengths, and Value decodes one element for
// everything else. Encoded vectors never carry NULLs — stores fall back to
// decoded emission for columns holding NULLs.
type VecEnc uint8

const (
	// EncNone: the payload lives decoded in I64/F64/Str.
	EncNone VecEnc = iota
	// EncDict: a string column; Codes[i] indexes the ascending-sorted
	// dictionary Dict, so code order is value order.
	EncDict
	// EncFoR: an int-family column stored frame-of-reference; the value at
	// row i is Base + int64(Codes[i]).
	EncFoR
	// EncRuns: run-length form; run r covers rows [RunEnds[r-1], RunEnds[r])
	// (RunEnds[-1] = 0) and its value sits at index r of the payload array
	// selected by Kind.
	EncRuns
)

// Vec is one column of a Batch. Exactly one payload array is populated,
// chosen by Kind: I64 carries Int64/Time/Bool (matching types.Value.I),
// F64 carries Float64, Str carries String. Null is non-nil only when the
// vector holds at least one NULL, in which case it spans the full length.
// A Vec is either a zero-copy view borrowed from a store's immutable
// column arrays (valid only while the batch is) or an owned buffer
// recycled with the batch. When Enc is not EncNone the payload is encoded
// (see VecEnc) and consumers must either dispatch on Enc or box through
// Value.
type Vec struct {
	Kind types.Kind
	I64  []int64
	F64  []float64
	Str  []string
	Null []bool

	// Encoded-view fields (always borrowed, never pooled).
	Enc     VecEnc
	Codes   []uint32 // EncDict/EncFoR: per-row codes
	Dict    []string // EncDict: sorted dictionary
	Base    int64    // EncFoR: frame base
	RunEnds []uint32 // EncRuns: exclusive end row of each run, ascending

	view bool
}

// ViewVec wraps existing typed arrays as a zero-copy vector view. The
// arrays are borrowed (typically from a column store's base arrays) and
// released when the batch is reset or recycled.
func ViewVec(kind types.Kind, i64 []int64, f64 []float64, str []string, null []bool) Vec {
	return Vec{Kind: kind, I64: i64, F64: f64, Str: str, Null: null, view: true}
}

// DictVec wraps a dictionary-encoded string column chunk as a zero-copy
// view: per-row codes into the sorted dictionary. The chunk must be
// NULL-free.
func DictVec(codes []uint32, dict []string) Vec {
	return Vec{Kind: types.KindString, Enc: EncDict, Codes: codes, Dict: dict, view: true}
}

// FoRVec wraps a frame-of-reference-encoded int-family column chunk as a
// zero-copy view: value(i) = base + int64(codes[i]). The chunk must be
// NULL-free.
func FoRVec(kind types.Kind, base int64, codes []uint32) Vec {
	return Vec{Kind: kind, Enc: EncFoR, Base: base, Codes: codes, view: true}
}

// RunsVec wraps a run-length-encoded column chunk without expanding it:
// the payload arrays hold one entry per run and runEnds holds each run's
// exclusive end row. The covered runs must be NULL-free.
func RunsVec(kind types.Kind, i64 []int64, f64 []float64, str []string, runEnds []uint32) Vec {
	return Vec{Kind: kind, Enc: EncRuns, I64: i64, F64: f64, Str: str, RunEnds: runEnds, view: true}
}

// Len is the number of rows in the vector.
func (v *Vec) Len() int {
	switch v.Enc {
	case EncDict, EncFoR:
		return len(v.Codes)
	case EncRuns:
		if len(v.RunEnds) == 0 {
			return 0
		}
		return int(v.RunEnds[len(v.RunEnds)-1])
	}
	switch v.Kind {
	case types.KindFloat64:
		return len(v.F64)
	case types.KindString:
		return len(v.Str)
	case types.KindNull:
		return len(v.Null)
	default:
		return len(v.I64)
	}
}

// runValue boxes run r's value of an EncRuns vector.
func (v *Vec) runValue(r int) types.Value {
	switch v.Kind {
	case types.KindFloat64:
		return types.Value{K: types.KindFloat64, F: v.F64[r]}
	case types.KindString:
		return types.Value{K: types.KindString, S: v.Str[r]}
	default:
		return types.Value{K: v.Kind, I: v.I64[r]}
	}
}

// RunIndex returns the run covering row i of an EncRuns vector.
func (v *Vec) RunIndex(i int) int {
	return sort.Search(len(v.RunEnds), func(r int) bool { return v.RunEnds[r] > uint32(i) })
}

// Value boxes the value at row i.
func (v *Vec) Value(i int) types.Value {
	switch v.Enc {
	case EncDict:
		return types.Value{K: types.KindString, S: v.Dict[v.Codes[i]]}
	case EncFoR:
		return types.Value{K: v.Kind, I: v.Base + int64(v.Codes[i])}
	case EncRuns:
		return v.runValue(v.RunIndex(i))
	}
	if v.Null != nil && v.Null[i] {
		return types.Null()
	}
	switch v.Kind {
	case types.KindFloat64:
		return types.Value{K: types.KindFloat64, F: v.F64[i]}
	case types.KindString:
		return types.Value{K: types.KindString, S: v.Str[i]}
	case types.KindNull:
		return types.Null()
	default:
		return types.Value{K: v.Kind, I: v.I64[i]}
	}
}

// adopt switches an all-NULL vector to kind k, backfilling the payload
// array with zeros for the rows appended so far.
func (v *Vec) adopt(k types.Kind) {
	n := v.Len()
	v.Kind = k
	switch k {
	case types.KindFloat64:
		v.F64 = v.F64[:0]
		for i := 0; i < n; i++ {
			v.F64 = append(v.F64, 0)
		}
	case types.KindString:
		v.Str = v.Str[:0]
		for i := 0; i < n; i++ {
			v.Str = append(v.Str, "")
		}
	default:
		v.I64 = v.I64[:0]
		for i := 0; i < n; i++ {
			v.I64 = append(v.I64, 0)
		}
	}
}

// Append adds one value. Columns are kind-homogeneous (the catalog fixes a
// kind per column); the vector adopts the kind of the first non-NULL value
// and coerces numerics on the rare mismatch.
func (v *Vec) Append(val types.Value) {
	if v.Kind == types.KindNull && val.K != types.KindNull {
		v.adopt(val.K)
	}
	if val.IsNull() {
		if v.Null == nil {
			n := v.Len()
			v.Null = make([]bool, n, n+8)
			for i := range v.Null {
				v.Null[i] = false
			}
		}
		v.Null = append(v.Null, true)
		v.appendZero()
		return
	}
	if v.Null != nil {
		v.Null = append(v.Null, false)
	}
	switch v.Kind {
	case types.KindFloat64:
		v.F64 = append(v.F64, val.Float())
	case types.KindString:
		v.Str = append(v.Str, val.S)
	case types.KindNull:
		// Unreachable: adopt handled non-NULL values above.
	default:
		if val.K == types.KindFloat64 {
			v.I64 = append(v.I64, int64(val.F))
		} else {
			v.I64 = append(v.I64, val.I)
		}
	}
}

// AppendN adds n copies of val (RLE run expansion).
func (v *Vec) AppendN(val types.Value, n int) {
	if n <= 0 {
		return
	}
	if v.Kind == types.KindNull && val.K != types.KindNull {
		v.adopt(val.K)
	}
	if val.IsNull() {
		if v.Null == nil {
			ln := v.Len()
			v.Null = make([]bool, ln, ln+n)
		}
		for i := 0; i < n; i++ {
			v.Null = append(v.Null, true)
			v.appendZero()
		}
		return
	}
	if v.Null != nil {
		for i := 0; i < n; i++ {
			v.Null = append(v.Null, false)
		}
	}
	switch v.Kind {
	case types.KindFloat64:
		f := val.Float()
		for i := 0; i < n; i++ {
			v.F64 = append(v.F64, f)
		}
	case types.KindString:
		for i := 0; i < n; i++ {
			v.Str = append(v.Str, val.S)
		}
	case types.KindNull:
	default:
		for i := 0; i < n; i++ {
			v.I64 = append(v.I64, val.I)
		}
	}
}

func (v *Vec) appendZero() {
	switch v.Kind {
	case types.KindFloat64:
		v.F64 = append(v.F64, 0)
	case types.KindString:
		v.Str = append(v.Str, "")
	case types.KindNull:
	default:
		v.I64 = append(v.I64, 0)
	}
}

// reset readies the vector for reuse: views drop their borrowed arrays so
// the pool never pins store memory; owned buffers keep their capacity.
func (v *Vec) reset() {
	if v.view {
		*v = Vec{}
		return
	}
	v.Kind = types.KindNull
	v.I64 = v.I64[:0]
	v.F64 = v.F64[:0]
	for i := range v.Str {
		v.Str[i] = "" // release string payloads held by the pooled buffer
	}
	v.Str = v.Str[:0]
	v.Null = nil
	v.Enc = EncNone
	v.Codes, v.Dict, v.RunEnds, v.Base = nil, nil, nil, 0
}

// Batch is one unit of vectorized scan output: up to maxRows rows of the
// projected columns, plus the selection vector. Produced by a store's
// ScanBatches, valid only until the consumer callback returns.
type Batch struct {
	// RowIDs maps physical batch row index -> store row id. May be a view
	// into the store's id array on the zero-copy path.
	RowIDs []schema.RowID
	// Vecs holds one vector per projected column, in projection order.
	Vecs []Vec
	// Sel lists the physical row indexes that passed the predicate, in
	// ascending order. nil means every row passed.
	Sel []int32
	// Scratch holds two selection buffers a producer narrows Sel into,
	// alternating between them. Neither Reset nor recycling drops them, so
	// a pooled batch filters without allocating; consumers never read them.
	Scratch [2][]int32

	rowIDsView bool
}

// NumRows is the physical row count (before selection).
func (b *Batch) NumRows() int { return len(b.RowIDs) }

// Len is the selected row count.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return len(b.RowIDs)
}

// Reset readies the batch for ncols columns, dropping views and keeping
// owned capacity.
func (b *Batch) Reset(ncols int) {
	if b.rowIDsView {
		b.RowIDs = nil
		b.rowIDsView = false
	} else {
		b.RowIDs = b.RowIDs[:0]
	}
	b.Sel = nil
	if cap(b.Vecs) < ncols {
		vecs := make([]Vec, ncols)
		copy(vecs, b.Vecs)
		b.Vecs = vecs
	} else {
		b.Vecs = b.Vecs[:ncols]
	}
	for i := range b.Vecs {
		b.Vecs[i].reset()
	}
}

// SetRowIDsView installs a borrowed row-id slice (zero-copy fast path).
func (b *Batch) SetRowIDsView(ids []schema.RowID) {
	b.RowIDs = ids
	b.rowIDsView = true
}

// AppendRow transposes one row into the batch (row-store scans).
func (b *Batch) AppendRow(id schema.RowID, vals []types.Value) {
	b.RowIDs = append(b.RowIDs, id)
	for i := range b.Vecs {
		b.Vecs[i].Append(vals[i])
	}
}

// Selected iterates the selected physical row indexes in ascending order;
// fn returning false stops the iteration and Selected returns false.
func (b *Batch) Selected(fn func(row int) bool) bool {
	if b.Sel != nil {
		for _, r := range b.Sel {
			if !fn(int(r)) {
				return false
			}
		}
		return true
	}
	for r := 0; r < len(b.RowIDs); r++ {
		if !fn(r) {
			return false
		}
	}
	return true
}

// Row boxes one physical row into dst (reused when cap allows).
func (b *Batch) Row(row int, dst []types.Value) []types.Value {
	dst = dst[:0]
	for i := range b.Vecs {
		dst = append(dst, b.Vecs[i].Value(row))
	}
	return dst
}

// AppendTuples boxes every selected row onto dst as freshly allocated
// tuples, safe to retain past the callback.
func (b *Batch) AppendTuples(dst [][]types.Value) [][]types.Value {
	b.Selected(func(row int) bool {
		t := make([]types.Value, len(b.Vecs))
		for i := range b.Vecs {
			t[i] = b.Vecs[i].Value(row)
		}
		dst = append(dst, t)
		return true
	})
	return dst
}

// recycle is the stronger reset run before pooling: every vector slot up
// to capacity is cleared so stale views can't outlive the scan.
func (b *Batch) recycle() {
	vecs := b.Vecs[:cap(b.Vecs)]
	for i := range vecs {
		vecs[i].reset()
	}
	b.Vecs = b.Vecs[:0]
	if b.rowIDsView {
		b.RowIDs = nil
		b.rowIDsView = false
	} else {
		b.RowIDs = b.RowIDs[:0]
	}
	b.Sel = nil
}

var batchPool sync.Pool

var (
	statBatches      atomic.Int64 // batches emitted to consumers
	statRowsScanned  atomic.Int64 // physical rows inspected (incl. pruned chunks)
	statRowsSelected atomic.Int64 // rows surviving predicate selection
	statPoolGets     atomic.Int64
	statPoolMisses   atomic.Int64
	statPoolPuts     atomic.Int64

	statEncVecs     atomic.Int64 // encoded vectors emitted in batches
	statCodeFilters atomic.Int64 // FilterVec calls answered on raw codes
	statEncFolds    atomic.Int64 // aggregate folds over codes/run lengths
)

// GetBatch takes a pooled batch, reset for ncols columns.
func GetBatch(ncols int) *Batch {
	statPoolGets.Add(1)
	b, _ := batchPool.Get().(*Batch)
	if b == nil {
		statPoolMisses.Add(1)
		b = &Batch{}
	}
	b.Reset(ncols)
	return b
}

// PutBatch recycles a batch. The caller must not retain the batch or any
// view into it afterwards.
func PutBatch(b *Batch) {
	if b == nil {
		return
	}
	b.recycle()
	statPoolPuts.Add(1)
	batchPool.Put(b)
}

// EmitBatch records the batch metrics and hands b to fn. Every ScanBatches
// implementation routes emissions through it so exec.batches.* stays
// consistent across layouts.
func EmitBatch(b *Batch, fn func(*Batch) bool) bool {
	statBatches.Add(1)
	statRowsScanned.Add(int64(b.NumRows()))
	statRowsSelected.Add(int64(b.Len()))
	enc := 0
	for i := range b.Vecs {
		if b.Vecs[i].Enc != EncNone {
			enc++
		}
	}
	if enc > 0 {
		statEncVecs.Add(int64(enc))
	}
	return fn(b)
}

// RecordEncodedFold counts one aggregate fold that ran directly over codes
// or run lengths (called by the executor; surfaced as exec.encoded.*).
func RecordEncodedFold() { statEncFolds.Add(1) }

// EncodedStats is a snapshot of the encoded-execution counters: how much of
// the batch pipeline ran on codes instead of decoded values.
type EncodedStats struct {
	Vecs        int64 // encoded vectors emitted
	CodeFilters int64 // predicate kernels answered on raw codes
	AggFolds    int64 // aggregate folds over codes/run lengths
}

// ReadEncodedStats snapshots the encoded-execution counters (cumulative
// since process start).
func ReadEncodedStats() EncodedStats {
	return EncodedStats{
		Vecs:        statEncVecs.Load(),
		CodeFilters: statCodeFilters.Load(),
		AggFolds:    statEncFolds.Load(),
	}
}

// RecordPrunedRows counts rows a scan inspected (via run metadata or
// vectorized filtering) but never emitted because nothing in the chunk
// passed, keeping the selectivity metric honest.
func RecordPrunedRows(n int) { statRowsScanned.Add(int64(n)) }

// BatchStats is a snapshot of the process-wide batch pipeline counters.
type BatchStats struct {
	Batches      int64
	RowsScanned  int64
	RowsSelected int64
	PoolGets     int64
	PoolHits     int64
	PoolPuts     int64
}

// ReadBatchStats snapshots the counters (cumulative since process start).
func ReadBatchStats() BatchStats {
	gets := statPoolGets.Load()
	return BatchStats{
		Batches:      statBatches.Load(),
		RowsScanned:  statRowsScanned.Load(),
		RowsSelected: statRowsSelected.Load(),
		PoolGets:     gets,
		PoolHits:     gets - statPoolMisses.Load(),
		PoolPuts:     statPoolPuts.Load(),
	}
}

// BatchPoolBalance reports gets − puts: zero when every batch taken from
// the pool has been returned (the leak detector used by tests).
func BatchPoolBalance() int64 { return statPoolGets.Load() - statPoolPuts.Load() }

// TransposeRows adapts a row-callback producer into the batch contract by
// filling pooled batches: the morsel executor's stitched units, whose rows
// are assembled from several pieces, leave through it.
func TransposeRows(ncols, maxRows int, scan func(fn func(schema.Row) bool), fn func(*Batch) bool) {
	if maxRows <= 0 {
		maxRows = DefaultBatchRows
	}
	b := GetBatch(ncols)
	defer PutBatch(b)
	stopped := false
	scan(func(r schema.Row) bool {
		b.AppendRow(r.ID, r.Vals)
		if b.NumRows() >= maxRows {
			if !EmitBatch(b, fn) {
				stopped = true
				return false
			}
			b.Reset(ncols)
		}
		return true
	})
	if !stopped && b.NumRows() > 0 {
		EmitBatch(b, fn)
	}
}
