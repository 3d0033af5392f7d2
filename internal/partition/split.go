package partition

import (
	"fmt"
	"slices"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// The functions below implement the partitioning changes of §4.4: merging
// or splitting partitions horizontally (row-wise) or vertically
// (column-wise). The paper notes that horizontal splits of row-format data
// and vertical splits of column-format data only reassign pointers, while
// the remaining combinations bulk-reload; this implementation always
// captures an image and reloads pieces of it — a split cuts the image by
// row id or by column, a merge concatenates two images or their columns —
// and the cost model (internal/cost, Table 2) charges the cheap
// combinations accordingly.

// SplitHorizontal divides p at row `at`, producing [RowStart, at) and
// [at, RowEnd). Both children adopt layout l.
func SplitHorizontal(p *Partition, at schema.RowID, ids [2]ID, l storage.Layout, f Factory, snap uint64) (*Partition, *Partition, error) {
	if at <= p.Bounds.RowStart || at >= p.Bounds.RowEnd {
		return nil, nil, fmt.Errorf("split row %d outside (%d, %d)", at, p.Bounds.RowStart, p.Bounds.RowEnd)
	}
	img := p.Image(snap)
	cut, _ := slices.BinarySearch(img.IDs, at)
	bl, bh := p.Bounds, p.Bounds
	bl.RowEnd, bh.RowStart = at, at
	pl := New(ids[0], bl, p.kinds, l, f)
	ph := New(ids[1], bh, p.kinds, l, f)
	if err := pl.LoadImage(img.Slice(0, cut), snap); err != nil {
		return nil, nil, err
	}
	if err := ph.LoadImage(img.Slice(cut, len(img.IDs)), snap); err != nil {
		return nil, nil, err
	}
	pl.SetVersion(p.Version())
	ph.SetVersion(p.Version())
	return pl, ph, nil
}

// SplitVertical divides p at global column `at` (row splitting, §2.2),
// producing [ColStart, at) and [at, ColEnd). Layouts ll and lr apply to the
// left and right children (their SortBy values are child-local).
func SplitVertical(p *Partition, at schema.ColID, ids [2]ID, ll, lr storage.Layout, f Factory, snap uint64) (*Partition, *Partition, error) {
	if at <= p.Bounds.ColStart || at >= p.Bounds.ColEnd {
		return nil, nil, fmt.Errorf("split col %d outside (%d, %d)", at, p.Bounds.ColStart, p.Bounds.ColEnd)
	}
	img := p.Image(snap)
	cut := int(at - p.Bounds.ColStart)
	bl, br := p.Bounds, p.Bounds
	bl.ColEnd, br.ColStart = at, at
	pl := New(ids[0], bl, p.kinds[:cut], ll, f)
	pr := New(ids[1], br, p.kinds[cut:], lr, f)
	if err := pl.LoadImage(storage.Image{IDs: img.IDs, Cols: img.Cols[:cut]}, snap); err != nil {
		return nil, nil, err
	}
	if err := pr.LoadImage(storage.Image{IDs: img.IDs, Cols: img.Cols[cut:]}, snap); err != nil {
		return nil, nil, err
	}
	pl.SetVersion(p.Version())
	pr.SetVersion(p.Version())
	return pl, pr, nil
}

// MergeHorizontal combines two partitions with identical column ranges and
// adjacent row ranges into one partition with layout l.
func MergeHorizontal(a, b *Partition, id ID, l storage.Layout, f Factory, snap uint64) (*Partition, error) {
	if a.Bounds.Table != b.Bounds.Table || a.Bounds.ColStart != b.Bounds.ColStart || a.Bounds.ColEnd != b.Bounds.ColEnd {
		return nil, fmt.Errorf("merge: column ranges differ: %v vs %v", a.Bounds, b.Bounds)
	}
	if a.Bounds.RowStart > b.Bounds.RowStart {
		a, b = b, a
	}
	if a.Bounds.RowEnd != b.Bounds.RowStart {
		return nil, fmt.Errorf("merge: row ranges not adjacent: %v vs %v", a.Bounds, b.Bounds)
	}
	img, tail := a.Image(snap), b.Image(snap)
	img.IDs = append(img.IDs, tail.IDs...)
	for c := range img.Cols {
		img.Cols[c].AppendVec(&tail.Cols[c], nil)
	}
	nb := a.Bounds
	nb.RowEnd = b.Bounds.RowEnd
	p := New(id, nb, a.kinds, l, f)
	if err := p.LoadImage(img, snap); err != nil {
		return nil, err
	}
	p.SetVersion(maxU64(a.Version(), b.Version()))
	return p, nil
}

// MergeVertical combines two partitions with identical row ranges and
// adjacent column ranges into one partition with layout l (l.SortBy is
// local to the merged column range).
func MergeVertical(a, b *Partition, id ID, l storage.Layout, f Factory, snap uint64) (*Partition, error) {
	if a.Bounds.Table != b.Bounds.Table || a.Bounds.RowStart != b.Bounds.RowStart || a.Bounds.RowEnd != b.Bounds.RowEnd {
		return nil, fmt.Errorf("merge: row ranges differ: %v vs %v", a.Bounds, b.Bounds)
	}
	if a.Bounds.ColStart > b.Bounds.ColStart {
		a, b = b, a
	}
	if a.Bounds.ColEnd != b.Bounds.ColStart {
		return nil, fmt.Errorf("merge: column ranges not adjacent: %v vs %v", a.Bounds, b.Bounds)
	}
	ia, ib := a.Image(snap), b.Image(snap)
	if !slices.Equal(ia.IDs, ib.IDs) {
		return nil, fmt.Errorf("merge: %v and %v hold different rows", a.Bounds, b.Bounds)
	}
	nb := a.Bounds
	nb.ColEnd = b.Bounds.ColEnd
	kinds := make([]types.Kind, 0, len(a.kinds)+len(b.kinds))
	kinds = append(kinds, a.kinds...)
	kinds = append(kinds, b.kinds...)
	p := New(id, nb, kinds, l, f)
	if err := p.LoadImage(storage.Image{IDs: ia.IDs, Cols: append(ia.Cols, ib.Cols...)}, snap); err != nil {
		return nil, err
	}
	p.SetVersion(maxU64(a.Version(), b.Version()))
	return p, nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
