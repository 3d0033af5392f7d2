package colstore

// Tests and a benchmark for scans over a pending delta: the one batch loop
// must keep emitting encoded, zero-copy vectors for the base while the
// delta is masked in, Stats must count live rows without a sorted delta
// copy, and a disk store must never scan a generation a concurrent merge
// has freed.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"proteus/internal/disksim"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// scanAll drains a whole-store batch scan into rows in emission order.
func scanAll(s storage.Store, cols []schema.ColID, pred storage.Pred, snap uint64, maxRows int) []schema.Row {
	var out []schema.Row
	s.ScanBatches(cols, pred, storage.MinRow, storage.MaxRow, snap, maxRows, func(b *storage.Batch) bool {
		b.Selected(func(r int) bool {
			out = append(out, schema.Row{ID: b.RowIDs[r], Vals: b.Row(r, nil)})
			return true
		})
		return true
	})
	return out
}

func TestDeltaScanKeepsEncodedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMem(testKinds, storage.NoSort, true)
	if err := load(m, testKinds, encTestRows(rng, 2000), 1); err != nil {
		t.Fatal(err)
	}
	for id := schema.RowID(0); id < 2000; id += 97 {
		if err := m.Update(id, []schema.ColID{0}, []types.Value{types.NewInt64(10_001)}, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Delete(500, 2); err != nil {
		t.Fatal(err)
	}
	pred := storage.Pred{{Col: 1, Op: storage.CmpNe, Val: types.NewString("absent")}}
	enc, ds := storage.ReadEncodedStats(), ReadDeltaScanStats()
	rows := scanAll(m, []schema.ColID{0, 1}, pred, storage.Latest, 256)
	encAfter, dsAfter := storage.ReadEncodedStats(), ReadDeltaScanStats()

	if len(rows) != 1999 {
		t.Fatalf("scan returned %d rows, want 1999", len(rows))
	}
	// Eight base chunks of 256 rows, two encoded columns each.
	if got := encAfter.Vecs - enc.Vecs; got < 16 {
		t.Errorf("encoded vectors emitted = %d, want >= 16", got)
	}
	if dsAfter.Units-ds.Units != 1 || dsAfter.RowsMasked-ds.RowsMasked != 22 || dsAfter.DeltaRows-ds.DeltaRows != 21 {
		t.Errorf("delta counters moved by %+v, want 1 unit, 22 masked, 21 emitted",
			DeltaScanStats{dsAfter.Units - ds.Units, dsAfter.RowsMasked - ds.RowsMasked, dsAfter.DeltaRows - ds.DeltaRows})
	}
	for _, r := range rows {
		if r.ID%97 == 0 && r.Vals[0].Int() != 10_001 {
			t.Fatalf("row %d: col 0 = %v, want the delta's 10001", r.ID, r.Vals[0])
		}
	}
}

func TestStatsRowsMatchExtract(t *testing.T) {
	for name, s := range variants(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			loadN(t, s, 60)
			next := int64(1000)
			for ver := uint64(2); ver < 200; ver++ {
				id := schema.RowID(1 + rng.Intn(80))
				switch rng.Intn(3) {
				case 0:
					_ = s.Delete(id, ver) // missing rows refuse; that is fine here
				case 1:
					_ = s.Update(id, []schema.ColID{2}, []types.Value{types.NewFloat64(float64(ver))}, ver)
				default:
					if err := s.Insert(mkRow(next), ver); err != nil {
						t.Fatal(err)
					}
					next++
				}
				if got, want := s.Stats().Rows, len(extract(s, testKinds, storage.Latest)); got != want {
					t.Fatalf("version %d: Stats().Rows = %d, ExtractAll has %d", ver, got, want)
				}
			}
		})
	}
}

// TestDiskScanDuringMerge scans disk column stores while another goroutine
// rewrites rows to their own values and merges the delta in a loop, so
// every merge swaps in a new generation and frees the old one's blocks.
// Every scan must return exactly the loaded rows.
func TestDiskScanDuringMerge(t *testing.T) {
	for _, sortBy := range []schema.ColID{storage.NoSort, 1} {
		t.Run(fmt.Sprintf("sort=%d", sortBy), func(t *testing.T) {
			d := NewDisk(testKinds, disksim.New(disksim.Config{}), sortBy, true)
			want := make([]schema.Row, 0, 200)
			for i := int64(1); i <= 200; i++ {
				want = append(want, mkRow(i))
			}
			if err := load(d, testKinds, want, 1); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ver := uint64(2); ; ver++ {
					select {
					case <-stop:
						return
					default:
					}
					id := int64(1 + ver%200)
					r := mkRow(id)
					if err := d.Update(r.ID, allCols(3), r.Vals, ver); err != nil {
						t.Error(err)
						return
					}
					if err := d.MergeDelta(ver); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for i := 0; i < 300; i++ {
				got := scanAll(d, allCols(3), nil, storage.Latest, 64)
				sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
				if len(got) != len(want) {
					t.Fatalf("scan %d: %d rows, want %d", i, len(got), len(want))
				}
				for k := range want {
					for c := range want[k].Vals {
						if got[k].ID != want[k].ID || !types.Equal(got[k].Vals[c], want[k].Vals[c]) {
							t.Fatalf("scan %d row %d: %v %v, want %v %v", i, k, got[k].ID, got[k].Vals, want[k].ID, want[k].Vals)
						}
					}
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkScanWithDelta measures one pass over a 100k-row column store cut
// into 1 024-row units the way the morsel executor scans it, with 0, 64 and
// 1 024 updates pending in the delta.
func BenchmarkScanWithDelta(b *testing.B) {
	const n, unit = 100_000, 1024
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = mkRow(int64(i))
	}
	pred := storage.Pred{{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(0)}}
	cols := []schema.ColID{0, 2}
	for _, pending := range []int{0, 64, 1024} {
		b.Run(fmt.Sprintf("delta=%d", pending), func(b *testing.B) {
			m := NewMem(testKinds, storage.NoSort, false)
			if err := load(m, testKinds, rows, 1); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < pending; i++ {
				id := schema.RowID(rng.Intn(n))
				if err := m.Update(id, []schema.ColID{2}, []types.Value{types.NewFloat64(-1)}, 2); err != nil {
					b.Fatal(err)
				}
			}
			var seen int
			sink := func(bt *storage.Batch) bool { seen += bt.Len(); return true }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := schema.RowID(0); lo < n; lo += unit {
					m.ScanBatches(cols, pred, lo, lo+unit, storage.Latest, 0, sink)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			if seen != b.N*n {
				b.Fatalf("scanned %d rows, want %d", seen, b.N*n)
			}
		})
	}
}
