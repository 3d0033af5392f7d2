package exec

import (
	"fmt"
	"time"

	"proteus/internal/cost"
	"proteus/internal/partition"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// localPred translates a predicate over table-global columns into the
// partition's local column space, keeping only the conjuncts the partition
// covers. ok reports whether every conjunct was pushed; when false the
// caller must enforce the uncovered conditions above the scan (for
// vertically partitioned scans, the row-id intersection across pieces
// does this).
func localPred(p *partition.Partition, pred storage.Pred) (storage.Pred, bool) {
	return LocalPred(p.Bounds, pred)
}

// ScanVariant picks the cost-function variant for the partition's layout.
func ScanVariant(l storage.Layout, pred storage.Pred) cost.Variant {
	if l.SortBy != storage.NoSort {
		for _, c := range pred {
			if c.Col == l.SortBy {
				return cost.ScanSorted
			}
		}
	}
	return cost.ScanSeq
}

// Scan reads the projection cols (table-global ids) of every row in the
// partition matching pred (table-global), at the snapshot version. The
// bool result reports whether the whole predicate was pushed into storage;
// when false the caller must apply the residual conditions.
func Scan(p *partition.Partition, cols []schema.ColID, pred storage.Pred, snap uint64) (Rel, cost.Observation, bool) {
	start := time.Now()
	lp, pushed := localPred(p, pred)
	lcols := make([]schema.ColID, len(cols))
	for i, c := range cols {
		lcols[i] = p.Bounds.LocalCol(c)
	}
	rel := Rel{Cols: make([]string, len(cols))}
	for i := range cols {
		rel.Cols[i] = fmt.Sprintf("c%d", cols[i])
	}
	if p.ZoneMap().CanSkip(lp) {
		// Zone-map skip (§4.1.3): no data touched. The observation carries
		// no features so the cost model is not trained on a no-op.
		return rel, cost.Observation{Op: cost.OpScan, Layout: p.Layout()}, pushed
	}
	p.ScanBatches(lcols, lp, snap, DefaultBatchRows, func(b *Batch) bool {
		rel.Tuples = b.AppendTuples(rel.Tuples)
		return true
	})

	layout := p.Layout()
	st := p.Stats()
	inBytes := 0
	if st.Rows > 0 {
		inBytes = st.Bytes / maxInt(st.Rows, 1)
	}
	sel := 1.0
	if st.Rows > 0 {
		sel = float64(len(rel.Tuples)) / float64(st.Rows)
	}
	obs := cost.Observation{
		Op:       cost.OpScan,
		Variant:  ScanVariant(layout, lp),
		Layout:   layout,
		Features: cost.ScanFeaturesEnc(st.Rows, inBytes, rel.RowBytes(), sel, encFracOf(st)),
		Latency:  time.Since(start),
	}
	return rel, obs, pushed
}

// encFracOf is the fraction of a store's resident bytes held in encoded
// column form, fed to the scan cost model as a feature.
func encFracOf(st storage.Stats) float64 {
	if st.Bytes <= 0 {
		return 0
	}
	return float64(st.EncodedBytes) / float64(st.Bytes)
}

// PointRead fetches one row's projection (table-global cols).
func PointRead(p *partition.Partition, id schema.RowID, cols []schema.ColID, snap uint64) (schema.Row, bool, cost.Observation) {
	start := time.Now()
	r, ok := p.Get(id, localCols(p, cols), snap)
	obs := cost.Observation{
		Op:       cost.OpPointRead,
		Layout:   p.Layout(),
		Features: cost.PointReadFeatures(len(cols), approxRowBytes(r.Vals)),
		Latency:  time.Since(start),
	}
	return r, ok, obs
}

// Insert adds a row (values in partition-local column order).
func Insert(p *partition.Partition, row schema.Row, ver uint64) (cost.Observation, error) {
	start := time.Now()
	err := p.Insert(row, ver)
	return cost.Observation{
		Op:       cost.OpWrite,
		Layout:   p.Layout(),
		Features: cost.WriteFeatures(len(row.Vals), approxRowBytes(row.Vals)),
		Latency:  time.Since(start),
	}, err
}

// Update rewrites the given table-global columns of a row.
func Update(p *partition.Partition, id schema.RowID, cols []schema.ColID, vals []types.Value, ver uint64) (cost.Observation, error) {
	start := time.Now()
	err := p.Update(id, localCols(p, cols), vals, ver)
	return cost.Observation{
		Op:       cost.OpWrite,
		Layout:   p.Layout(),
		Features: cost.WriteFeatures(len(cols), approxRowBytes(vals)),
		Latency:  time.Since(start),
	}, err
}

// Delete removes a row.
func Delete(p *partition.Partition, id schema.RowID, ver uint64) (cost.Observation, error) {
	start := time.Now()
	err := p.Delete(id, ver)
	return cost.Observation{
		Op:       cost.OpWrite,
		Layout:   p.Layout(),
		Features: cost.WriteFeatures(1, 0),
		Latency:  time.Since(start),
	}, err
}

// localCols translates table-global columns to p's local ones. A piece
// that starts at the table's first column — every piece of a table that
// is not split vertically — numbers its columns as the table does, so
// cols serves as is and nothing is allocated.
func localCols(p *partition.Partition, cols []schema.ColID) []schema.ColID {
	if p.Bounds.ColStart == 0 {
		return cols
	}
	lcols := make([]schema.ColID, len(cols))
	for i, c := range cols {
		lcols[i] = p.Bounds.LocalCol(c)
	}
	return lcols
}

func approxRowBytes(vals []types.Value) int {
	n := 0
	for _, v := range vals {
		n += types.VarWidth(v)
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
