package partition

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Every layout must answer the one scan contract identically. These tests
// compare whole-store and ranged batch scans of randomized predicates
// against an independent oracle computed from the loaded data in plain Go,
// across row/column × memory/disk, sorted and RLE variants, with buffered
// deltas, under concurrent layout swaps, when fn stops the scan, and over
// the morsels a partition splits itself into.

var diffLayouts = []struct {
	name string
	l    storage.Layout
}{
	{"row-mem", storage.Layout{Format: storage.RowFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort}},
	{"row-disk", storage.Layout{Format: storage.RowFormat, Tier: storage.DiskTier, SortBy: storage.NoSort}},
	{"col-mem", storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort}},
	{"col-mem-sorted", storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 0}},
	{"col-mem-rle", storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort, Compressed: true}},
	{"col-mem-rle-sorted", storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 0, Compressed: true}},
	{"col-disk-sorted", storage.Layout{Format: storage.ColumnFormat, Tier: storage.DiskTier, SortBy: 0}},
	{"col-disk-rle", storage.Layout{Format: storage.ColumnFormat, Tier: storage.DiskTier, SortBy: storage.NoSort, Compressed: true}},
}

// diffRow keys scan output by row id so differently-ordered executions
// (sorted stores emit in key order) compare positionally after sorting.
type diffRow struct {
	id   schema.RowID
	vals []types.Value
}

func sortDiff(rows []diffRow) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
}

func sameDiff(t *testing.T, name string, got, want []diffRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].id != want[i].id {
			t.Fatalf("%s row %d: id %d, want %d", name, i, got[i].id, want[i].id)
		}
		for k := range want[i].vals {
			if types.Compare(got[i].vals[k], want[i].vals[k]) != 0 {
				t.Fatalf("%s row %d col %d: %v, want %v", name, i, k, got[i].vals[k], want[i].vals[k])
			}
		}
	}
}

// diffData builds a deterministic table with RLE-friendly columns: col0 has
// long runs of few distinct ints (it is also the sort key of the sorted
// layouts), col1 is a float, col2 draws from three strings.
func diffData(r *rand.Rand, n int) []schema.Row {
	strs := []string{"aa", "bb", "cc"}
	rows := make([]schema.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(int64(i / 50)), // runs of 50
			types.NewFloat64(float64(r.Intn(100))),
			types.NewString(strs[r.Intn(len(strs))]),
		}})
	}
	return rows
}

// oracleScan filters and projects live in plain Go, the ground truth both
// scan paths must reproduce.
func oracleScan(live map[schema.RowID][]types.Value, cols []schema.ColID, pred storage.Pred, lo, hi schema.RowID) []diffRow {
	var out []diffRow
	for id, vals := range live {
		if id < lo || id >= hi {
			continue
		}
		if !pred.Match(vals) {
			continue
		}
		proj := make([]types.Value, len(cols))
		for i, c := range cols {
			proj[i] = vals[c]
		}
		out = append(out, diffRow{id: id, vals: proj})
	}
	sortDiff(out)
	return out
}

func randPred(r *rand.Rand) storage.Pred {
	ops := []storage.CmpOp{storage.CmpEq, storage.CmpNe, storage.CmpLt, storage.CmpLe, storage.CmpGt, storage.CmpGe}
	var pred storage.Pred
	if r.Intn(4) > 0 {
		pred = append(pred, storage.Cond{Col: 0, Op: ops[r.Intn(len(ops))], Val: types.NewInt64(int64(r.Intn(9)))})
	}
	if r.Intn(3) == 0 {
		pred = append(pred, storage.Cond{Col: 1, Op: ops[r.Intn(len(ops))], Val: types.NewFloat64(float64(r.Intn(100)))})
	}
	if r.Intn(3) == 0 {
		pred = append(pred, storage.Cond{Col: 2, Op: storage.CmpEq, Val: types.NewString("bb")})
	}
	return pred
}

func randProj(r *rand.Rand) []schema.ColID {
	n := 1 + r.Intn(3)
	perm := r.Perm(3)[:n]
	cols := make([]schema.ColID, n)
	for i, c := range perm {
		cols[i] = schema.ColID(c)
	}
	return cols
}

// collectBatches returns the batch path's output in emission order.
func collectBatches(p *Partition, cols []schema.ColID, pred storage.Pred, snap uint64, maxRows int) []diffRow {
	var out []diffRow
	p.ScanBatches(cols, pred, snap, maxRows, func(b *storage.Batch) bool {
		appendBatch(&out, b)
		return true
	})
	return out
}

// collectRange returns a store's ranged scan output in emission order.
func collectRange(st storage.Store, cols []schema.ColID, pred storage.Pred, lo, hi schema.RowID, snap uint64, maxRows int) []diffRow {
	var out []diffRow
	st.ScanBatches(cols, pred, lo, hi, snap, maxRows, func(b *storage.Batch) bool {
		appendBatch(&out, b)
		return true
	})
	return out
}

// inOrder checks that a layout keeping a sort emitted rows in (sort value,
// row id) order — the values as the snapshot sees them, from the oracle —
// and returns the rows sorted by id for comparison.
func inOrder(t *testing.T, name string, l storage.Layout, live map[schema.RowID][]types.Value, rows []diffRow) []diffRow {
	t.Helper()
	if l.SortBy != storage.NoSort {
		for i := 1; i < len(rows); i++ {
			a, b := rows[i-1].id, rows[i].id
			if c := types.Compare(live[a][l.SortBy], live[b][l.SortBy]); c > 0 || c == 0 && a > b {
				t.Fatalf("%s: row %d (key %v) emitted before row %d (key %v)", name, a, live[a][l.SortBy], b, live[b][l.SortBy])
			}
		}
	}
	sortDiff(rows)
	return rows
}

func appendBatch(out *[]diffRow, b *storage.Batch) {
	b.Selected(func(row int) bool {
		vals := make([]types.Value, len(b.Vecs))
		for i := range b.Vecs {
			vals[i] = b.Vecs[i].Value(row)
		}
		*out = append(*out, diffRow{id: b.RowIDs[row], vals: vals})
		return true
	})
}

// deltaPartition loads a partition of layout l with randomized data, then
// buffers two more versions of writes — populating the column stores'
// delta side with updates that move rows across predicates and the sort
// key, inserts, deletes of base rows and of rows the delta itself
// inserted. It returns the live rows each snapshot sees: versions 1, 2
// and storage.Latest.
func deltaPartition(t *testing.T, r *rand.Rand, l storage.Layout) (*Partition, [3]map[schema.RowID][]types.Value) {
	t.Helper()
	const n = 400
	rows := diffData(r, n)
	b := Bounds{Table: 1, RowStart: 0, RowEnd: 1000, ColStart: 0, ColEnd: 3}
	p := New(1, b, kinds, l, factory())
	if err := p.Load(rows, 1); err != nil {
		t.Fatal(err)
	}

	v1 := map[schema.RowID][]types.Value{}
	for _, row := range rows {
		v1[row.ID] = append([]types.Value(nil), row.Vals...)
	}
	next := func(prev map[schema.RowID][]types.Value) map[schema.RowID][]types.Value {
		out := map[schema.RowID][]types.Value{}
		for id, vals := range prev {
			out[id] = append([]types.Value(nil), vals...)
		}
		return out
	}
	update := func(live map[schema.RowID][]types.Value, id schema.RowID, col schema.ColID, v types.Value, ver uint64) {
		if _, ok := live[id]; !ok {
			return
		}
		if err := p.Update(id, []schema.ColID{col}, []types.Value{v}, ver); err != nil {
			t.Fatal(err)
		}
		live[id][col] = v
	}
	del := func(live map[schema.RowID][]types.Value, id schema.RowID, ver uint64) {
		if _, ok := live[id]; !ok {
			return
		}
		if err := p.Delete(id, ver); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
	}

	v2 := next(v1)
	var moved []schema.RowID
	for i := 0; i < 40; i++ {
		id := schema.RowID(r.Intn(n))
		moved = append(moved, id)
		update(v2, id, 0, types.NewInt64(int64(r.Intn(9))), 2)
	}
	for i := 0; i < 20; i++ {
		id := schema.RowID(400 + i)
		vals := []types.Value{types.NewInt64(int64(i % 9)), types.NewFloat64(float64(i)), types.NewString("dd")}
		if err := p.Insert(schema.Row{ID: id, Vals: vals}, 2); err != nil {
			t.Fatal(err)
		}
		v2[id] = append([]types.Value(nil), vals...)
	}
	for i := 0; i < 15; i++ {
		del(v2, schema.RowID(r.Intn(n)), 2)
	}

	// Version 3 moves rows version 2 already moved to the other end of the
	// key range, so they cross every predicate constant and the sorted
	// layouts' key order twice; it also rewrites and deletes rows the
	// delta inserted.
	v3 := next(v2)
	for _, id := range moved {
		if vals, ok := v3[id]; ok {
			update(v3, id, 0, types.NewInt64(8-vals[0].Int()), 3)
		}
	}
	for i := 0; i < 20; i++ {
		id := schema.RowID(400 + i)
		if i%4 == 0 {
			del(v3, id, 3)
		} else {
			update(v3, id, 2, types.NewString("bb"), 3)
		}
	}
	for i := 0; i < 10; i++ {
		del(v3, schema.RowID(r.Intn(n)), 3)
	}
	return p, [3]map[schema.RowID][]types.Value{v1, v2, v3}
}

// diffSnaps names the snapshots deltaPartition's oracles describe.
var diffSnaps = [3]struct {
	name string
	ver  uint64
}{{"v1", 1}, {"v2", 2}, {"latest", storage.Latest}}

// TestBatchRowDifferential checks, on every layout with a pending delta
// (deltaPartition), the partition's whole-store scan and the store's own
// ranged scan against the oracle at all three snapshots, sorted layouts
// in sort order.
func TestBatchRowDifferential(t *testing.T) {
	for _, lc := range diffLayouts {
		t.Run(lc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(41))
			p, oracles := deltaPartition(t, r, lc.l)
			st := p.StoreSnapshot()

			// Ranges cutting col0's 50-row runs mid-run, one row wide, and
			// spanning the base's end into the inserted ids.
			fixed := [][2]schema.RowID{{25, 75}, {130, 131}, {349, 451}, {0, 1000}}
			for si, snap := range diffSnaps {
				oracle := oracles[si]
				for trial := 0; trial < 16; trial++ {
					cols := randProj(r)
					pred := randPred(r)
					want := oracleScan(oracle, cols, pred, 0, 1000)
					name := lc.name + "/" + snap.name
					maxRows := []int{0, 1, 7, 64}[trial%4] // odd batch sizes split runs mid-chunk
					sameDiff(t, name+"/batch", inOrder(t, name+"/batch", lc.l, oracle, collectBatches(p, cols, pred, snap.ver, maxRows)), want)

					lo := schema.RowID(r.Intn(300))
					hi := lo + schema.RowID(r.Intn(200))
					if trial < len(fixed) {
						lo, hi = fixed[trial][0], fixed[trial][1]
					}
					ranged := collectRange(st, cols, pred, lo, hi, snap.ver, maxRows)
					sameDiff(t, name+"/range", inOrder(t, name+"/range", lc.l, oracle, ranged), oracleScan(oracle, cols, pred, lo, hi))
				}
			}
		})
	}
}

// TestBatchScanDuringLayoutSwaps runs batch scans — both through the
// partition and through a captured store snapshot, the morsel executor's
// path — while another goroutine cycles the partition through every layout.
// Every scan must still match the oracle exactly.
func TestBatchScanDuringLayoutSwaps(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	const n = 300
	rows := diffData(r, n)
	b := Bounds{Table: 1, RowStart: 0, RowEnd: 1000, ColStart: 0, ColEnd: 3}
	p := New(1, b, kinds, diffLayouts[0].l, factory())
	if err := p.Load(rows, 1); err != nil {
		t.Fatal(err)
	}
	live := map[schema.RowID][]types.Value{}
	for _, row := range rows {
		live[row.ID] = append([]types.Value(nil), row.Vals...)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f := factory()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.ChangeLayout(diffLayouts[(i+1)%len(diffLayouts)].l, f, storage.Latest); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < 100; i++ {
		cols := randProj(r)
		pred := randPred(r)
		want := oracleScan(live, cols, pred, 0, 1000)
		got := collectBatches(p, cols, pred, storage.Latest, 32)
		sortDiff(got)
		sameDiff(t, "swap/batch", got, want)

		// The captured-store path must stay correct even though the
		// partition may swap its store mid-scan.
		got = collectRange(p.StoreSnapshot(), cols, pred, 0, 1000, storage.Latest, 32)
		sortDiff(got)
		sameDiff(t, "swap/captured", got, want)
	}
	close(stop)
	wg.Wait()
}

// TestScanStopsEarly checks on every layout with a pending delta that an fn
// returning false after the first batch stops the scan, whole-store and
// ranged, through the store and through the partition.
func TestScanStopsEarly(t *testing.T) {
	for _, lc := range diffLayouts {
		t.Run(lc.name, func(t *testing.T) {
			p, _ := deltaPartition(t, rand.New(rand.NewSource(47)), lc.l)
			st := p.StoreSnapshot()
			cols := []schema.ColID{0, 2}
			for _, snap := range diffSnaps {
				for _, r := range [][2]schema.RowID{{storage.MinRow, storage.MaxRow}, {25, 451}} {
					calls := 0
					st.ScanBatches(cols, nil, r[0], r[1], snap.ver, 7, func(*storage.Batch) bool {
						calls++
						return false
					})
					if calls != 1 {
						t.Errorf("%s [%d, %d): fn called %d times after returning false, want 1", snap.name, r[0], r[1], calls)
					}
				}
				calls := 0
				p.ScanBatches(cols, nil, snap.ver, 7, func(*storage.Batch) bool {
					calls++
					return false
				})
				if calls != 1 {
					t.Errorf("%s partition: fn called %d times after returning false, want 1", snap.name, calls)
				}
			}
		})
	}
}

// TestMorselsCoverScan checks on every layout with a pending delta that the
// scans of a partition's morsels, concatenated, return exactly the rows of
// the whole-store scan, none twice, for several morsel sizes.
func TestMorselsCoverScan(t *testing.T) {
	for _, lc := range diffLayouts {
		t.Run(lc.name, func(t *testing.T) {
			p, oracles := deltaPartition(t, rand.New(rand.NewSource(53)), lc.l)
			st := p.StoreSnapshot()
			cols := []schema.ColID{0, 1, 2}
			for si, snap := range diffSnaps {
				want := oracleScan(oracles[si], cols, nil, storage.MinRow, storage.MaxRow)
				sameDiff(t, snap.name+"/whole", sortedDiff(collectBatches(p, cols, nil, snap.ver, 0)), want)
				for _, k := range []int{1, 7, 64, 1000} {
					ms := p.Morsels(k)
					if len(ms) == 0 {
						t.Fatalf("%s k=%d: no morsels", snap.name, k)
					}
					var got []diffRow
					for _, m := range ms {
						got = append(got, collectRange(st, cols, nil, m.Lo, m.Hi, snap.ver, 0)...)
					}
					seen := map[schema.RowID]bool{}
					for _, row := range got {
						if seen[row.id] {
							t.Fatalf("%s k=%d: row %d scanned twice over %d morsels", snap.name, k, row.id, len(ms))
						}
						seen[row.id] = true
					}
					sameDiff(t, snap.name+"/morsels", sortedDiff(got), want)
				}
			}
		})
	}
}

func sortedDiff(rows []diffRow) []diffRow {
	sortDiff(rows)
	return rows
}
