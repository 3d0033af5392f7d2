package storage

import (
	"cmp"
	"fmt"
	"slices"

	"proteus/internal/schema"
	"proteus/internal/types"
)

// Image is a whole store's live rows at one version, column-major: the one
// form in which a partition moves between layouts, copies and the redo-log
// broker's snapshot store (§4.3, §4.4). IDs lists the rows in ascending
// order; Cols holds one plain vector per store column whose cell i belongs
// to row IDs[i]. A column's payload array is the one its Kind selects, as
// in a scan batch (I64 for Int64/Time/Bool, F64 for Float64, Str for
// String); it carries no encoding, and its Null is non-nil only where the
// column holds a NULL.
//
// A store loading an image copies what it keeps and never retains the
// image's slices, so one image can load several copies in turn.
type Image struct {
	IDs  []schema.RowID
	Cols []Vec
}

// NewImage makes an empty image with one plain column per kind and room
// for hint rows.
func NewImage(kinds []types.Kind, hint int) Image {
	img := Image{IDs: make([]schema.RowID, 0, hint), Cols: make([]Vec, len(kinds))}
	for i, k := range kinds {
		v := &img.Cols[i]
		v.Kind = k
		switch k {
		case types.KindFloat64:
			v.F64 = make([]float64, 0, hint)
		case types.KindString:
			v.Str = make([]string, 0, hint)
		default:
			v.I64 = make([]int64, 0, hint)
		}
	}
	return img
}

// Capture reads every live row of st at version into an image. The caller
// holds whatever makes one scan a consistent state: a fixed snapshot
// version, the partition's write lock, or the engine's partition lock plus
// a commit barrier.
func Capture(st Store, kinds []types.Kind, version uint64) Image {
	img := NewImage(kinds, st.Stats().Rows)
	cols := make([]schema.ColID, len(kinds))
	for i := range cols {
		cols[i] = schema.ColID(i)
	}
	st.ScanBatches(cols, nil, MinRow, MaxRow, version, 0, func(b *Batch) bool {
		if b.Sel == nil {
			img.IDs = append(img.IDs, b.RowIDs...)
		} else {
			for _, r := range b.Sel {
				img.IDs = append(img.IDs, b.RowIDs[r])
			}
		}
		for c := range img.Cols {
			img.Cols[c].AppendVec(&b.Vecs[c], b.Sel)
		}
		return true
	})
	img.SortByID() // a value-sorted layout scans in sort-key order
	return img
}

// ImageOf converts boxed rows, in any order, to an image over kinds.
func ImageOf(kinds []types.Kind, rows []schema.Row) (Image, error) {
	img := NewImage(kinds, len(rows))
	for _, r := range rows {
		if len(r.Vals) != len(kinds) {
			return Image{}, fmt.Errorf("storage: row %d has %d values for %d columns", r.ID, len(r.Vals), len(kinds))
		}
		img.IDs = append(img.IDs, r.ID)
		for c := range img.Cols {
			img.Cols[c].Append(r.Vals[c])
		}
	}
	img.SortByID()
	return img, nil
}

// Rows boxes the image into rows ordered by id.
func (img Image) Rows() []schema.Row {
	nc := len(img.Cols)
	rows := make([]schema.Row, len(img.IDs))
	vals := make([]types.Value, len(img.IDs)*nc)
	for i, id := range img.IDs {
		rows[i] = schema.Row{ID: id, Vals: vals[i*nc : (i+1)*nc : (i+1)*nc]}
		for c := range img.Cols {
			rows[i].Vals[c] = img.Cols[c].Value(i)
		}
	}
	return rows
}

// Slice returns rows [i, j) as an image sharing img's arrays.
func (img Image) Slice(i, j int) Image {
	out := Image{IDs: img.IDs[i:j], Cols: make([]Vec, len(img.Cols))}
	for c := range img.Cols {
		v, w := &img.Cols[c], &out.Cols[c]
		w.Kind = v.Kind
		switch v.Kind {
		case types.KindFloat64:
			w.F64 = v.F64[i:j]
		case types.KindString:
			w.Str = v.Str[i:j]
		default:
			w.I64 = v.I64[i:j]
		}
		if v.Null != nil && slices.Contains(v.Null[i:j], true) {
			w.Null = v.Null[i:j]
		}
	}
	return out
}

// Clone copies the image into arrays of its own.
func (img Image) Clone() Image {
	out := Image{IDs: slices.Clone(img.IDs), Cols: make([]Vec, len(img.Cols))}
	for c := range img.Cols {
		out.Cols[c].Kind = img.Cols[c].Kind
		out.Cols[c].AppendVec(&img.Cols[c], nil)
	}
	return out
}

// Check reports an image that does not fit a store over kinds: a column
// count, kind or length that differs, or ids out of ascending order.
func (img Image) Check(kinds []types.Kind) error {
	if len(img.Cols) != len(kinds) {
		return fmt.Errorf("storage: image has %d columns for %d", len(img.Cols), len(kinds))
	}
	for c := range img.Cols {
		if v := &img.Cols[c]; v.Kind != kinds[c] || v.Enc != EncNone || v.Len() != len(img.IDs) {
			return fmt.Errorf("storage: image column %d is %d %v cells for %d %v rows", c, v.Len(), v.Kind, len(img.IDs), kinds[c])
		}
	}
	for i := 1; i < len(img.IDs); i++ {
		if img.IDs[i] <= img.IDs[i-1] {
			return fmt.Errorf("storage: image row %d follows row %d", img.IDs[i], img.IDs[i-1])
		}
	}
	return nil
}

// SortByID puts the image into row-id order, gathering every column
// through one permutation.
func (img *Image) SortByID() {
	if slices.IsSorted(img.IDs) {
		return
	}
	perm := make([]int32, len(img.IDs))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(x, y int32) int { return cmp.Compare(img.IDs[x], img.IDs[y]) })
	ids := make([]schema.RowID, len(perm))
	for i, p := range perm {
		ids[i] = img.IDs[p]
	}
	img.IDs = ids
	for c := range img.Cols {
		img.Cols[c] = img.Cols[c].Gather(perm)
	}
}

// Gather returns a plain vector of v's cells in perm's order.
func (v *Vec) Gather(perm []int32) Vec {
	out := Vec{Kind: v.Kind}
	out.AppendVec(v, perm)
	return out
}
