package storage

import (
	"testing"

	"proteus/internal/schema"
	"proteus/internal/types"
)

// TestImageOfSliceCloneCheck: ImageOf orders rows by id and keeps a NULL
// as a Null flag; Slice drops the Null of a range without one; a Clone
// shares no array with its source; Check turns away an image a store of
// the given kinds cannot load.
func TestImageOfSliceCloneCheck(t *testing.T) {
	kinds := []types.Kind{types.KindInt64, types.KindString}
	row := func(id int64, v types.Value) schema.Row {
		return schema.Row{ID: schema.RowID(id), Vals: []types.Value{v, types.NewString("s")}}
	}
	img, err := ImageOf(kinds, []schema.Row{row(30, types.NewInt64(3)), row(10, types.Null()), row(20, types.NewInt64(2))})
	if err != nil {
		t.Fatal(err)
	}
	if got := img.Rows(); len(got) != 3 || got[0].ID != 10 || !got[0].Vals[0].IsNull() || got[2].Vals[0].Int() != 3 {
		t.Fatalf("rows = %v", got)
	}
	if tail := img.Slice(1, 3); tail.Cols[0].Null != nil || tail.IDs[0] != 20 {
		t.Errorf("slice without a NULL kept Null %v (ids %v)", tail.Cols[0].Null, tail.IDs)
	}
	c := img.Clone()
	c.IDs[0], c.Cols[1].Str[0] = 99, "changed"
	if img.IDs[0] != 10 || img.Cols[1].Str[0] != "s" || c.Cols[0].Null == nil {
		t.Errorf("clone shares arrays with its source or lost a NULL")
	}
	if err := img.Check(kinds); err != nil {
		t.Errorf("a well-formed image fails Check: %v", err)
	}
	if _, err := ImageOf(kinds, []schema.Row{{ID: 1, Vals: []types.Value{types.NewInt64(1)}}}); err == nil {
		t.Error("a short row converts")
	}
	dup, _ := ImageOf(kinds, []schema.Row{row(1, types.NewInt64(1)), row(1, types.NewInt64(2))})
	for name, bad := range map[string]Image{
		"duplicate id": dup,
		"wrong kinds":  NewImage([]types.Kind{types.KindFloat64, types.KindString}, 0),
		"short column": {IDs: img.IDs, Cols: []Vec{img.Cols[0], img.Slice(0, 1).Cols[1]}},
		"column count": NewImage(kinds[:1], 0),
	} {
		if bad.Check(kinds) == nil {
			t.Errorf("%s passes Check", name)
		}
	}
}
