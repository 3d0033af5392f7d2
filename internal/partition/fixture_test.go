package partition

import (
	"fmt"
	"testing"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// The fixture every whole-partition move is checked on: one column of each
// kind, one NULL in four cells (all of them in the Float64, Time and Bool
// columns, so the Int64 and String columns stay eligible for FoR and
// dictionary encodings), and writes left pending on top of the load — a
// column store's delta, a row disk store's buffer, a row store's version
// chains.
var fixtureKinds = []types.Kind{types.KindInt64, types.KindFloat64, types.KindString, types.KindTime, types.KindBool}

const fixtureRows = 40

func fixtureVals(id int64) []types.Value {
	v := []types.Value{
		types.NewInt64(id%9*100 - id),
		types.NewFloat64(float64(id%5) * 1.25),
		types.NewString(fmt.Sprintf("s%d", id%6)),
		types.NewTimeMicros(1e6 + id%4),
		types.NewBool(id%3 == 0),
	}
	if id%2 == 0 {
		v[1] = types.Null()
	} else {
		v[3] = types.Null()
	}
	if id%4 == 0 {
		v[4] = types.Null()
	}
	return v
}

// fixture loads the fixture into layout l, rows arriving out of id order,
// and leaves writes pending at version 2: an update to NULL, one clearing
// a NULL, a delete and two out-of-order inserts.
func fixture(t *testing.T, l storage.Layout) *Partition {
	t.Helper()
	p := New(1, bounds(), fixtureKinds, l, factory())
	var rows []schema.Row
	for i := int64(fixtureRows - 1); i >= 0; i-- {
		rows = append(rows, schema.Row{ID: schema.RowID(i), Vals: fixtureVals(i)})
	}
	if err := p.Load(rows, 1); err != nil {
		t.Fatal(err)
	}
	writes := []error{
		p.Update(3, []schema.ColID{0, 2}, []types.Value{types.Null(), types.NewString("upd")}, 2),
		p.Update(4, []schema.ColID{1}, []types.Value{types.NewFloat64(2.5)}, 2),
		p.Delete(5, 2),
		p.Insert(schema.Row{ID: 47, Vals: fixtureVals(47)}, 2),
		p.Insert(schema.Row{ID: 42, Vals: fixtureVals(42)}, 2),
	}
	for _, err := range writes {
		if err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// cellsOf reads every live row of p one Get at a time: the oracle a move
// is held to, independent of the image it moves through.
func cellsOf(p *Partition) map[schema.RowID][]types.Value {
	cols := make([]schema.ColID, len(p.Kinds()))
	for i := range cols {
		cols[i] = schema.ColID(i)
	}
	out := map[schema.RowID][]types.Value{}
	for id := p.Bounds.RowStart; id < p.Bounds.RowEnd; id++ {
		if r, ok := p.Get(id, cols, storage.Latest); ok {
			out[id] = r.Vals
		}
	}
	return out
}

// sameCells fails unless got holds exactly want's rows with lo <= id < hi,
// each cell identical, over want's columns [c0, c0+ncols).
func sameCells(t *testing.T, ctx string, got, want map[schema.RowID][]types.Value, lo, hi schema.RowID, c0, ncols int) {
	t.Helper()
	n := 0
	for id, w := range want {
		if id < lo || id >= hi {
			continue
		}
		n++
		g, ok := got[id]
		if !ok || len(g) != ncols {
			t.Fatalf("%s: row %d = %v, want %v", ctx, id, g, w[c0:c0+ncols])
		}
		for c := range g {
			if g[c] != w[c0+c] {
				t.Fatalf("%s: row %d col %d = %v, want %v", ctx, id, c0+c, g[c], w[c0+c])
			}
		}
	}
	if len(got) != n {
		t.Fatalf("%s: %d rows, want %d", ctx, len(got), n)
	}
}

// fixtureLayouts covers every store, sort and encoding the fixture can
// take.
var fixtureLayouts = []storage.Layout{
	{Format: storage.RowFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort},
	{Format: storage.RowFormat, Tier: storage.DiskTier, SortBy: storage.NoSort},
	{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort},
	{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort, Compressed: true},
	{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 0},
	{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 1, Compressed: true},
	{Format: storage.ColumnFormat, Tier: storage.DiskTier, SortBy: storage.NoSort, Compressed: true},
	{Format: storage.ColumnFormat, Tier: storage.DiskTier, SortBy: 2},
}

// fixtureStats pins each layout's Stats().Bytes and EncodedBytes on the
// fixture, pending writes included — the footprint and encoded share the
// cost model reads — first converted into the layout from the in-memory
// column store, then loaded into it directly. A disk column block stores a
// fixed-width column as a typed array with no per-value offset (a NULL
// bitmap only where the column holds NULLs), so the column/disk footprints
// are the disk blocks' bytes in that format.
var fixtureStats = map[string][4]int{
	"row/memory":                  {1558, 0, 1672, 0}, // {1517, 0, 1628, 0} before each version carried a one-byte null bitmap
	"row/disk":                    {1467, 0, 1430, 0},
	"column/memory":               {2102, 0, 2262, 0},
	"column/memory/rle":           {1819, 132, 1598, 224},
	"column/memory/sorted(0)":     {2102, 0, 2262, 0},
	"column/memory/sorted(1)/rle": {1599, 248, 1390, 340},
	"column/disk/rle":             {1212, 103, 938, 198},
	"column/disk/sorted(2)":       {1534, 0, 1489, 0},
}

func TestFixtureStatsPinned(t *testing.T) {
	for _, l := range fixtureLayouts {
		p := fixture(t, storage.DefaultColumnLayout())
		if err := p.ChangeLayout(l, factory(), storage.Latest); err != nil {
			t.Fatal(err)
		}
		converted, loaded := p.Stats(), fixture(t, l).Stats()
		got := [4]int{converted.Bytes, converted.EncodedBytes, loaded.Bytes, loaded.EncodedBytes}
		if want := fixtureStats[l.String()]; got != want {
			t.Errorf("%v: Bytes/EncodedBytes converted %d/%d, loaded %d/%d; want %v", l, got[0], got[1], got[2], got[3], want)
		}
	}
}
