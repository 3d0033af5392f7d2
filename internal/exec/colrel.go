package exec

import (
	"proteus/internal/storage"
	"proteus/internal/types"
)

// ColRel is a materialized columnar relation: the batch-native counterpart
// of Rel used by the vectorized join and group-by engine. Vectors are
// owned, decoded (EncNone) storage.Vec buffers, so scan batches borrowed
// from store arrays can be accumulated safely past the batch callback and
// payload columns can be gathered by row index without boxing.
type ColRel struct {
	// Cols labels the column positions, as in Rel.
	Cols []string
	// Vecs holds one decoded vector per column, each rows long.
	Vecs []storage.Vec
	rows int
}

// NewColRel returns an empty columnar relation with the given labels.
func NewColRel(cols []string) ColRel {
	return ColRel{Cols: cols, Vecs: make([]storage.Vec, len(cols))}
}

// NumRows reports the row count.
func (c *ColRel) NumRows() int { return c.rows }

// SetRows declares the row count for relations assembled by copying vector
// headers directly (column projections); every vector must be n rows.
func (c *ColRel) SetRows(n int) { c.rows = n }

// AppendBatch appends the selected rows of a scan batch column-wise,
// decoding encoded vectors. The batch's arrays are copied, never borrowed.
func (c *ColRel) AppendBatch(b *storage.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	for i := range c.Vecs {
		c.Vecs[i].AppendVec(&b.Vecs[i], b.Sel)
	}
	c.rows += n
}

// AppendCols appends every row of another columnar relation with the same
// shape.
func (c *ColRel) AppendCols(o *ColRel) {
	if o.rows == 0 {
		return
	}
	for i := range c.Vecs {
		c.Vecs[i].AppendVec(&o.Vecs[i], nil)
	}
	c.rows += o.rows
}

// Gather appends the rows of o at positions idx (with repetition, in idx
// order) — the late-materialization primitive of the batch hash join.
func (c *ColRel) Gather(o *ColRel, idx []int32) {
	if len(idx) == 0 {
		return
	}
	for i := range c.Vecs {
		c.Vecs[i].AppendVec(&o.Vecs[i], idx)
	}
	c.rows += len(idx)
}

// ColRelFromRel boxes a row relation into columnar form.
func ColRelFromRel(r Rel) ColRel {
	c := NewColRel(r.Cols)
	for _, t := range r.Tuples {
		for i := range c.Vecs {
			c.Vecs[i].Append(t[i])
		}
	}
	c.rows = len(r.Tuples)
	return c
}

// Rel materializes the columnar relation as boxed tuples, for callers that
// still speak the row contract (result presentation, the legacy operator
// fallbacks, differential tests). The tuples share one backing array.
func (c *ColRel) Rel() Rel {
	out := Rel{Cols: c.Cols, Tuples: make([][]types.Value, c.rows)}
	w := len(c.Vecs)
	vals := make([]types.Value, c.rows*w)
	for r := 0; r < c.rows; r++ {
		t := vals[r*w : (r+1)*w : (r+1)*w]
		for i := range c.Vecs {
			t[i] = c.Vecs[i].Value(r)
		}
		out.Tuples[r] = t
	}
	return out
}

// RowBytes estimates the average tuple width, mirroring Rel.RowBytes, for
// cost features and network-transfer accounting.
func (c *ColRel) RowBytes() int { return c.rowBytes(0) }

// BytesFrom estimates the size of rows [from, NumRows()): their count
// times the average width of up to 32 of them, sampled as RowBytes does.
func (c *ColRel) BytesFrom(from int) int { return (c.rows - from) * c.rowBytes(from) }

// rowBytes is the average width of up to 32 rows from row from on.
func (c *ColRel) rowBytes(from int) int {
	sample := min(c.rows-from, 32)
	if sample <= 0 {
		return 0
	}
	n := 0
	for r := from; r < from+sample; r++ {
		for i := range c.Vecs {
			n += types.VarWidth(c.Vecs[i].Value(r))
		}
	}
	return n / sample
}

// Bytes estimates the total materialized size, used against the join spill
// budget.
func (c *ColRel) Bytes() int64 {
	return int64(c.rows) * int64(c.RowBytes())
}

// selView returns a Batch view over the relation's vectors selecting rows
// [0, n): the bridge that lets Aggregator.ObserveBatch fold a join output
// without re-boxing. The returned batch borrows c's arrays.
func (c *ColRel) selView(sel []int32) storage.Batch {
	return storage.Batch{Vecs: c.Vecs, Sel: sel}
}
