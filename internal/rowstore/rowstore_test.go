package rowstore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"proteus/internal/disksim"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

var testKinds = []types.Kind{types.KindInt64, types.KindString, types.KindFloat64}

func mkRow(id int64) schema.Row {
	return schema.Row{ID: schema.RowID(id), Vals: []types.Value{
		types.NewInt64(id * 10),
		types.NewString(fmt.Sprintf("name-%d-with-long-suffix", id)),
		types.NewFloat64(float64(id) / 2),
	}}
}

// stores returns both row-store variants behind the common interface so
// every behaviour test runs against each.
func stores(t *testing.T) map[string]storage.Store {
	t.Helper()
	dev := disksim.New(disksim.Config{}) // zero-latency device for unit tests
	return map[string]storage.Store{
		"mem":  NewMem(testKinds),
		"disk": NewDisk(testKinds, dev),
	}
}

func TestInsertGet(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Insert(mkRow(1), 1); err != nil {
				t.Fatal(err)
			}
			r, ok := s.Get(1, []schema.ColID{0, 1, 2}, storage.Latest)
			if !ok {
				t.Fatal("row not found")
			}
			if r.Vals[0].Int() != 10 || r.Vals[1].Str() != "name-1-with-long-suffix" || r.Vals[2].Float() != 0.5 {
				t.Errorf("got %v", r.Vals)
			}
		})
	}
}

func TestGetProjection(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Insert(mkRow(1), 1); err != nil {
				t.Fatal(err)
			}
			r, ok := s.Get(1, []schema.ColID{2}, storage.Latest)
			if !ok || len(r.Vals) != 1 || r.Vals[0].Float() != 0.5 {
				t.Errorf("projection: %v %v", r, ok)
			}
		})
	}
}

func TestDuplicateInsert(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Insert(mkRow(1), 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Insert(mkRow(1), 2); err == nil {
				t.Error("expected duplicate error")
			}
		})
	}
}

func TestUpdateCreatesVersion(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Insert(mkRow(1), 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Update(1, []schema.ColID{0}, []types.Value{types.NewInt64(999)}, 5); err != nil {
				t.Fatal(err)
			}
			// Snapshot before the update sees the old value.
			r, ok := s.Get(1, []schema.ColID{0}, 4)
			if !ok || r.Vals[0].Int() != 10 {
				t.Errorf("snapshot 4: %v %v", r, ok)
			}
			// Snapshot at/after the update sees the new value; other columns keep theirs.
			r, ok = s.Get(1, []schema.ColID{0, 2}, 5)
			if !ok || r.Vals[0].Int() != 999 || r.Vals[1].Float() != 0.5 {
				t.Errorf("snapshot 5: %v %v", r, ok)
			}
		})
	}
}

func TestUpdateMissingRow(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Update(42, []schema.ColID{0}, []types.Value{types.NewInt64(0)}, 1); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestDeleteVisibility(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Insert(mkRow(1), 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(1, 3); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(1, []schema.ColID{0}, 2); !ok {
				t.Error("pre-delete snapshot should see the row")
			}
			if _, ok := s.Get(1, []schema.ColID{0}, 3); ok {
				t.Error("post-delete snapshot should not see the row")
			}
			if err := s.Delete(1, 4); err == nil {
				t.Error("double delete should fail")
			}
			// Re-insert after delete is allowed.
			if err := s.Insert(mkRow(1), 5); err != nil {
				t.Errorf("re-insert after delete: %v", err)
			}
		})
	}
}

// scanIDs returns the ids a whole-store scan emits, in emission order.
func scanIDs(s storage.Store, pred storage.Pred) []schema.RowID {
	var ids []schema.RowID
	s.ScanBatches([]schema.ColID{0}, pred, storage.MinRow, storage.MaxRow, storage.Latest, 0, func(b *storage.Batch) bool {
		b.Selected(func(r int) bool {
			ids = append(ids, b.RowIDs[r])
			return true
		})
		return true
	})
	return ids
}

func TestScanPredicateAndOrder(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for i := int64(5); i >= 1; i-- { // insert out of order
				if err := s.Insert(mkRow(i), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			pred := storage.Pred{{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(30)}}
			got := scanIDs(s, pred)
			want := []schema.RowID{3, 4, 5}
			if len(got) != len(want) {
				t.Fatalf("scan got %v", got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("scan order: got %v want %v", got, want)
				}
			}
		})
	}
}

func TestScanEarlyStop(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for i := int64(1); i <= 10; i++ {
				if err := s.Insert(mkRow(i), 1); err != nil {
					t.Fatal(err)
				}
			}
			n := 0
			s.ScanBatches([]schema.ColID{0}, nil, storage.MinRow, storage.MaxRow, storage.Latest, 1, func(b *storage.Batch) bool {
				n += b.Len()
				return n < 3
			})
			if n != 3 {
				t.Errorf("early stop visited %d rows", n)
			}
		})
	}
}

func TestLoadAndExtract(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			rows := []schema.Row{mkRow(3), mkRow(1), mkRow(2)}
			if err := load(s, testKinds, rows, 1); err != nil {
				t.Fatal(err)
			}
			out := extract(s, testKinds, storage.Latest)
			if len(out) != 3 {
				t.Fatalf("extracted %d rows", len(out))
			}
			for i, r := range out {
				if r.ID != schema.RowID(i+1) {
					t.Errorf("extract order: %v", out)
				}
				if len(r.Vals) != 3 {
					t.Errorf("extract width: %v", r)
				}
			}
		})
	}
}

func TestStats(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for i := int64(1); i <= 4; i++ {
				if err := s.Insert(mkRow(i), 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Delete(4, 2); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Rows != 3 {
				t.Errorf("%s Rows = %d, want 3", name, st.Rows)
			}
			if name == "mem" && st.Bytes == 0 {
				t.Error("mem store should report bytes")
			}
		})
	}
}

func TestLayouts(t *testing.T) {
	dev := disksim.New(disksim.Config{})
	m, d := NewMem(testKinds), NewDisk(testKinds, dev)
	if l := m.Layout(); l.Format != storage.RowFormat || l.Tier != storage.MemoryTier {
		t.Errorf("mem layout = %v", l)
	}
	if l := d.Layout(); l.Format != storage.RowFormat || l.Tier != storage.DiskTier {
		t.Errorf("disk layout = %v", l)
	}
}

func TestDiskFlushAndReRead(t *testing.T) {
	dev := disksim.New(disksim.Config{})
	d := NewDisk(testKinds, dev)
	if err := load(d, testKinds, []schema.Row{mkRow(1), mkRow(2)}, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Update(1, []schema.ColID{0}, []types.Value{types.NewInt64(-7)}, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(mkRow(9), 3); err != nil {
		t.Fatal(err)
	}
	if d.BufferedRows() != 2 {
		t.Errorf("buffered = %d, want 2", d.BufferedRows())
	}
	if err := d.Flush(3); err != nil {
		t.Fatal(err)
	}
	if d.BufferedRows() != 0 {
		t.Errorf("buffered after flush = %d", d.BufferedRows())
	}
	r, ok := d.Get(1, []schema.ColID{0}, storage.Latest)
	if !ok || r.Vals[0].Int() != -7 {
		t.Errorf("post-flush read: %v %v", r, ok)
	}
	if got := extract(d, testKinds, storage.Latest); len(got) != 3 {
		t.Errorf("post-flush rows = %d", len(got))
	}
}

func TestMemGC(t *testing.T) {
	m := NewMem(testKinds)
	if err := m.Insert(mkRow(1), 1); err != nil {
		t.Fatal(err)
	}
	for v := uint64(2); v <= 6; v++ {
		if err := m.Update(1, []schema.ColID{0}, []types.Value{types.NewInt64(int64(v))}, v); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Versions != 6 {
		t.Fatalf("versions = %d, want 6", st.Versions)
	}
	reclaimed := m.GC(6)
	if reclaimed != 5 {
		t.Errorf("reclaimed = %d, want 5", reclaimed)
	}
	r, ok := m.Get(1, []schema.ColID{0}, storage.Latest)
	if !ok || r.Vals[0].Int() != 6 {
		t.Errorf("post-GC value: %v", r)
	}
}

// Property: for a random batch of distinct rows, Load then ExtractAll is the
// identity (up to RowID ordering) on both layouts.
func TestLoadExtractRoundTripProperty(t *testing.T) {
	dev := disksim.New(disksim.Config{})
	f := func(seeds []int16) bool {
		seen := map[int64]bool{}
		var rows []schema.Row
		for _, s := range seeds {
			id := int64(s)
			if id < 0 {
				id = -id
			}
			if seen[id] {
				continue
			}
			seen[id] = true
			rows = append(rows, mkRow(id))
		}
		for _, s := range []storage.Store{NewMem(testKinds), NewDisk(testKinds, dev)} {
			if err := load(s, testKinds, rows, 1); err != nil {
				return false
			}
			out := extract(s, testKinds, storage.Latest)
			if len(out) != len(rows) {
				return false
			}
			byID := map[schema.RowID]schema.Row{}
			for _, r := range rows {
				byID[r.ID] = r
			}
			for _, r := range out {
				want := byID[r.ID]
				for i := range r.Vals {
					if !types.Equal(r.Vals[i], want.Vals[i]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// recount rebuilds Mem's counters and lists from its chains and checks them
// against what the store keeps incrementally.
func recount(t *testing.T, m *Mem) {
	t.Helper()
	live, nvers, nbytes := 0, 0, 0
	var ids, chained []schema.RowID
	for id, head := range m.rows {
		ids = append(ids, id)
		if !head.deleted {
			live++
		}
		if head.prev != nil {
			chained = append(chained, id)
		}
		for v := head; v != nil; v = v.prev {
			nvers++
			nbytes += len(v.data)
		}
	}
	slices.Sort(ids)
	slices.Sort(chained)
	got := slices.Clone(m.chained)
	slices.Sort(got)
	if st := m.Stats(); st.Rows != live || st.Versions != nvers || st.Bytes != nbytes {
		t.Fatalf("Stats = %+v, chains hold %d live rows, %d versions, %d bytes", st, live, nvers, nbytes)
	}
	if !slices.Equal(m.ids, ids) {
		t.Fatalf("ids = %v, rows hold %v", m.ids, ids)
	}
	if !slices.Equal(got, chained) {
		t.Fatalf("chained = %v, rows with two or more versions are %v", got, chained)
	}
}

// readAll is what a snapshot sees: every row through Get, and the full scan
// through ScanBatches, both rendered for comparison. A captured image must
// agree with the scan.
func readAll(t *testing.T, m *Mem, snap uint64, maxID int64) (gets, scan []string) {
	all := allCols(len(m.kinds))
	for id := int64(0); id < maxID; id++ {
		if r, ok := m.Get(schema.RowID(id), all, snap); ok {
			gets = append(gets, fmt.Sprint(r))
		}
	}
	m.ScanBatches(all, nil, storage.MinRow, storage.MaxRow, snap, 3, func(b *storage.Batch) bool {
		b.Selected(func(row int) bool {
			scan = append(scan, fmt.Sprint(b.RowIDs[row], b.Row(row, nil)))
			return true
		})
		return true
	})
	var captured []string
	for _, r := range extract(m, m.kinds, snap) {
		captured = append(captured, fmt.Sprint(r.ID, r.Vals))
	}
	if !slices.Equal(captured, scan) {
		t.Fatalf("snapshot %d: captured image %v, ScanBatches %v", snap, captured, scan)
	}
	return gets, scan
}

// TestMemGCDifferential runs random inserts, updates and deletes — strings
// of up to 8 bytes and longer, updates that grow and shrink them or keep
// their length (the in-place rewrite) — at
// rising versions, with a GC at a random horizon every so often. Every
// snapshot at or above the horizon reads the same rows through Get and
// ScanBatches before and after the GC, the newest snapshot reads what a
// plain map of the writes holds, and the O(1) counters, the id slice and the
// chained list match a recount of the chains.
func TestMemGCDifferential(t *testing.T) {
	kinds := []types.Kind{types.KindInt64, types.KindString, types.KindFloat64, types.KindString}
	str := func(rng *rand.Rand) types.Value {
		const letters = "abcdefghijklmnopqrstuvwxyz"
		b := make([]byte, rng.Intn(20))
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return types.NewString(string(b))
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMem(kinds)
		const maxID = 40
		model := map[schema.RowID][]types.Value{} // the newest values of every live row
		if seed%2 == 0 {
			var rows []schema.Row
			for id := int64(0); id < maxID; id += 2 {
				rows = append(rows, schema.Row{ID: schema.RowID(id), Vals: []types.Value{
					types.NewInt64(id), str(rng), types.NewFloat64(0), str(rng)}})
			}
			if err := load(m, kinds, rows, 1); err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				model[r.ID] = r.Vals
			}
			recount(t, m)
		}
		ver, h := uint64(1), uint64(0)
		reclaimed := 0
		for step := 0; step < 600; step++ {
			ver += uint64(rng.Intn(3)) // several writes may share a version
			id := schema.RowID(rng.Intn(maxID))
			_, exists := m.Get(id, nil, storage.Latest)
			switch op := rng.Intn(10); {
			case !exists && op < 7:
				row := schema.Row{ID: id, Vals: []types.Value{
					types.NewInt64(int64(step)), str(rng), types.NewFloat64(float64(ver)), str(rng)}}
				if err := m.Insert(row, ver); err != nil {
					t.Fatal(err)
				}
				model[id] = row.Vals
			case exists && op < 7:
				cols := []schema.ColID{schema.ColID(rng.Intn(len(kinds)))}
				if rng.Intn(2) == 0 {
					cols = append(cols, 1, 3)
				}
				cur, _ := m.Get(id, allCols(len(kinds)), storage.Latest)
				vals := make([]types.Value, len(cols))
				for i, c := range cols {
					if kinds[c] == types.KindString {
						vals[i] = str(rng)
						if rng.Intn(2) == 0 { // the same length as the current value
							vals[i] = types.NewString(strings.Repeat("x", len(cur.Vals[c].Str())))
						}
					} else if kinds[c] == types.KindInt64 {
						vals[i] = types.NewInt64(int64(step))
					} else {
						vals[i] = types.NewFloat64(float64(ver))
					}
				}
				if err := m.Update(id, cols, vals, ver); err != nil {
					t.Fatal(err)
				}
				next := slices.Clone(model[id])
				for i, c := range cols {
					next[c] = vals[i]
				}
				model[id] = next
			case exists:
				if err := m.Delete(id, ver); err != nil {
					t.Fatal(err)
				}
				delete(model, id)
			}
			if rng.Intn(25) != 0 {
				continue
			}
			h += uint64(rng.Int63n(int64(ver-h) + 1)) // horizons only rise
			// The horizon, the versions just above it, a spread of later
			// ones and the newest.
			var snaps []uint64
			for s := h; s <= ver+1; s += 1 + (s-h)/4 {
				snaps = append(snaps, s)
			}
			snaps = append(snaps, ver+1)
			type view struct{ gets, scan []string }
			before := map[uint64]view{}
			for _, s := range snaps {
				g, sc := readAll(t, m, s, maxID)
				before[s] = view{g, sc}
			}
			reclaimed += m.GC(h)
			for _, s := range snaps {
				g, sc := readAll(t, m, s, maxID)
				if !slices.Equal(g, before[s].gets) || !slices.Equal(sc, before[s].scan) {
					t.Fatalf("seed %d: snapshot %d changed by GC(%d):\nGet  %v\n  -> %v\nScan %v\n  -> %v",
						seed, s, h, before[s].gets, g, before[s].scan, sc)
				}
			}
			recount(t, m)
			for id := schema.RowID(0); id < maxID; id++ {
				r, ok := m.Get(id, allCols(len(kinds)), storage.Latest)
				if want, live := model[id]; ok != live || ok && fmt.Sprint(r.Vals) != fmt.Sprint(want) {
					t.Fatalf("seed %d: row %d reads %v (%v), the writes left %v (%v)", seed, id, r.Vals, ok, want, live)
				}
			}
		}
		if reclaimed == 0 {
			t.Errorf("seed %d: GC never reclaimed a version", seed)
		}
	}
}

// BenchmarkMemUpdateGC is the row store's share of an oltp-rmw write: a
// point read and an update of one 16-byte string field of a ten-field row,
// with a GC pass at the latest version every 1 000 updates, as the
// maintenance tick would run it.
func BenchmarkMemUpdateGC(b *testing.B) {
	kinds := []types.Kind{types.KindInt64}
	for f := 0; f < 10; f++ {
		kinds = append(kinds, types.KindString)
	}
	const rows = 20000
	m := NewMem(kinds)
	data := make([]schema.Row, rows)
	for i := range data {
		vals := []types.Value{types.NewInt64(int64(i))}
		for f := 0; f < 10; f++ {
			vals = append(vals, types.NewString(fmt.Sprintf("%016d", i*10+f)))
		}
		data[i] = schema.Row{ID: schema.RowID(i), Vals: vals}
	}
	if err := load(m, kinds, data, 1); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cols := []schema.ColID{3}
	vals := []types.Value{types.NewString("abcdefghijklmnop")}
	ver := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := schema.RowID(rng.Intn(rows))
		if _, ok := m.Get(id, cols, ver); !ok {
			b.Fatal("missing row")
		}
		ver++
		if err := m.Update(id, cols, vals, ver); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			m.GC(ver)
		}
	}
}

// load bulk-loads boxed rows through an image.
func load(s storage.Store, kinds []types.Kind, rows []schema.Row, ver uint64) error {
	img, err := storage.ImageOf(kinds, rows)
	if err != nil {
		return err
	}
	return s.LoadImage(img, ver)
}

// extract boxes every live row of s at ver, ordered by id.
func extract(s storage.Store, kinds []types.Kind, ver uint64) []schema.Row {
	return storage.Capture(s, kinds, ver).Rows()
}

// TestDiskReadsAcrossFlushes runs scans and point reads while another
// goroutine updates, inserts and flushes over and over. Every scan sees
// every loaded row and every point read finds its row: a read pins the
// generation it starts on, so a flush neither frees the image under it
// nor pairs it with the next image's index or buffer.
func TestDiskReadsAcrossFlushes(t *testing.T) {
	const rows, flushes = 500, 200
	d := NewDisk(testKinds, disksim.New(disksim.Config{}))
	base := make([]schema.Row, rows)
	for i := range base {
		base[i] = mkRow(int64(i))
	}
	if err := load(d, testKinds, base, 1); err != nil {
		t.Fatal(err)
	}
	var short, torn, missed, scans, gets atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, prev := 0, schema.RowID(-1)
			d.ScanBatches([]schema.ColID{0, 1}, nil, 0, 2*rows, storage.Latest, 64, func(b *storage.Batch) bool {
				for i := 0; i < b.NumRows(); i++ {
					if id := b.RowIDs[i]; id <= prev {
						torn.Add(1)
					} else {
						prev = id
					}
				}
				n += b.NumRows()
				return true
			})
			if n < rows {
				short.Add(1)
			}
			scans.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for id := 0; ; id = (id + 13) % rows {
			select {
			case <-stop:
				return
			default:
			}
			if r, ok := d.Get(schema.RowID(id), []schema.ColID{1}, storage.Latest); !ok || r.Vals[0].S != base[id].Vals[1].S {
				missed.Add(1)
			}
			gets.Add(1)
		}
	}()
	for f := 0; f < flushes; f++ {
		ver := uint64(f + 2)
		for id := f % 7; id < rows; id += 7 {
			if err := d.Update(schema.RowID(id), []schema.ColID{0}, []types.Value{types.NewInt64(-int64(ver))}, ver); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Insert(mkRow(int64(rows+f)), ver); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(ver); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if short.Load()+torn.Load()+missed.Load() != 0 {
		t.Errorf("across %d flushes: %d of %d scans short, %d out of id order; %d of %d point reads missed their row",
			flushes, short.Load(), scans.Load(), torn.Load(), missed.Load(), gets.Load())
	}
}
