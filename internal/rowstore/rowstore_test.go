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
// against what the store keeps incrementally: the O(1) counters, the
// chained list, each chunk's live bytes, and that every header is either
// on a chain or on the free list.
func recount(t *testing.T, m *Mem) {
	t.Helper()
	live, nvers, nbytes := 0, 0, 0
	var chained []schema.RowID
	chunkLive := make([]int, len(m.chunks))
	onChain := 0
	if !slices.IsSorted(m.ids) || len(m.ids) != len(m.heads) {
		t.Fatalf("ids %v (%d heads) are not an ascending index", m.ids, len(m.heads))
	}
	for i, id := range m.ids {
		head := m.heads[i]
		if !m.hdrs[head].deleted() {
			live++
		}
		if m.hdrs[head].prev != noHdr {
			chained = append(chained, id)
		}
		for v := head; v != noHdr; v = m.hdrs[v].prev {
			hd := m.hdrs[v]
			nvers++
			onChain++
			nbytes += int(hd.n)
			if hd.chunk != noChunk {
				if int(hd.off+hd.n) > len(m.chunks[hd.chunk].buf) {
					t.Fatalf("row %d: version at %d+%d past chunk %d's %d bytes", id, hd.off, hd.n, hd.chunk, len(m.chunks[hd.chunk].buf))
				}
				chunkLive[hd.chunk] += int(hd.n)
			}
		}
	}
	free := 0
	for f := m.free; f != noHdr; f = m.hdrs[f].prev {
		free++
	}
	if onChain+free != len(m.hdrs) {
		t.Fatalf("%d headers on chains and %d free of %d", onChain, free, len(m.hdrs))
	}
	for ci, c := range m.chunks {
		if c.live != chunkLive[ci] {
			t.Fatalf("chunk %d counts %d live bytes, its versions hold %d", ci, c.live, chunkLive[ci])
		}
	}
	got := slices.Clone(m.chained)
	slices.Sort(got)
	if st := m.Stats(); st.Rows != live || st.Versions != nvers || st.Bytes != nbytes {
		t.Fatalf("Stats = %+v, chains hold %d live rows, %d versions, %d bytes", st, live, nvers, nbytes)
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

// modelVersion is one write of the differential test's model: the row's
// values from it on, or a delete.
type modelVersion struct {
	ver     uint64
	vals    []types.Value
	deleted bool
}

// history is the differential test's model of a Mem: every retained
// version of every row, oldest first, cut by gc as Mem.GC cuts its chains.
type history map[schema.RowID][]modelVersion

// at returns what a snapshot at snap reads of row id.
func (hs history) at(id schema.RowID, snap uint64) ([]types.Value, bool) {
	vs := hs[id]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].ver <= snap {
			return vs[i].vals, !vs[i].deleted
		}
	}
	return nil, false
}

// gc drops every version no snapshot at or above h can observe, and
// returns how many.
func (hs history) gc(h uint64) int {
	dropped := 0
	for id, vs := range hs {
		cut := -1
		for i := range vs {
			if vs[i].ver <= h {
				cut = i
			}
		}
		if cut < 0 {
			continue
		}
		if vs[cut].deleted {
			cut++
		}
		dropped += cut
		if hs[id] = vs[cut:]; len(hs[id]) == 0 {
			delete(hs, id)
		}
	}
	return dropped
}

// stats is what Mem.Stats should report for the retained versions: a
// version's bytes are its null bitmap and fixed slots plus its strings
// longer than 8 bytes.
func (hs history) stats(m *Mem) storage.Stats {
	var st storage.Stats
	for _, vs := range hs {
		if !vs[len(vs)-1].deleted {
			st.Rows++
		}
		st.Versions += len(vs)
		for _, v := range vs {
			if !v.deleted {
				st.Bytes += m.size(v.vals)
			}
		}
	}
	return st
}

// TestMemGCDifferential runs random inserts, updates and deletes — strings
// of up to 8 bytes and longer, NULLs, updates that grow and shrink strings
// or keep their length — at rising versions, with a GC at a random horizon
// every so often, long enough for the arena to reuse emptied chunks and
// evacuate nearly empty ones (the test fails if either never happens).
// Every snapshot at or above the horizon reads the same rows through Get
// and ScanBatches before and after the GC, and what a model of every write
// holds; Stats matches the model, and the O(1) counters, the chained list,
// the chunks' live bytes and the free list match a recount of the chains.
func TestMemGCDifferential(t *testing.T) {
	kinds := []types.Kind{types.KindInt64, types.KindString, types.KindFloat64, types.KindString}
	str := func(rng *rand.Rand) types.Value {
		const letters = "abcdefghijklmnopqrstuvwxyz"
		if rng.Intn(10) == 0 {
			return types.Null()
		}
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return types.NewString(string(b))
	}
	evacuated, reused := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMem(kinds)
		const maxID = 40
		model := history{}
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
				model[r.ID] = []modelVersion{{ver: 1, vals: r.Vals}}
			}
			recount(t, m)
		}
		ver, h := uint64(1), uint64(0)
		reclaimed := 0
		for step := 0; step < 1200; step++ {
			ver += uint64(rng.Intn(3)) // several writes may share a version
			id := schema.RowID(rng.Intn(maxID))
			cur, exists := model.at(id, ver)
			chunks, tail := len(m.chunks), m.tail
			switch op := rng.Intn(10); {
			case !exists && op < 7:
				row := schema.Row{ID: id, Vals: []types.Value{
					types.NewInt64(int64(step)), str(rng), types.NewFloat64(float64(ver)), str(rng)}}
				if err := m.Insert(row, ver); err != nil {
					t.Fatal(err)
				}
				model[id] = append(model[id], modelVersion{ver: ver, vals: row.Vals})
			case exists && op < 7:
				cols := []schema.ColID{schema.ColID(rng.Intn(len(kinds)))}
				if rng.Intn(2) == 0 {
					cols = append(cols, 1, 3)
				}
				vals := make([]types.Value, len(cols))
				for i, c := range cols {
					switch {
					case rng.Intn(12) == 0:
						vals[i] = types.Null()
					case kinds[c] == types.KindString:
						vals[i] = str(rng)
						if rng.Intn(2) == 0 { // the same length as the current value
							vals[i] = types.NewString(strings.Repeat("x", len(cur[c].Str())))
						}
					case kinds[c] == types.KindInt64:
						vals[i] = types.NewInt64(int64(step))
					default:
						vals[i] = types.NewFloat64(float64(ver))
					}
				}
				if err := m.Update(id, cols, vals, ver); err != nil {
					t.Fatal(err)
				}
				next := slices.Clone(cur)
				for i, c := range cols {
					next[c] = vals[i]
				}
				model[id] = append(model[id], modelVersion{ver: ver, vals: next})
			case exists:
				if err := m.Delete(id, ver); err != nil {
					t.Fatal(err)
				}
				model[id] = append(model[id], modelVersion{ver: ver, deleted: true})
			}
			if m.tail != tail && len(m.chunks) == chunks && tail != noChunk {
				reused++ // the new tail is a chunk GC emptied
			}
			if rng.Intn(25) != 0 {
				continue
			}
			h += uint64(rng.Int63n(int64(ver-h) + 1)) // horizons only rise
			// The horizon, the versions just above it, a spread of later
			// ones and the newest.
			var snaps []uint64
			for s := h; s <= ver+1; s += 1 + (s-h)/2 {
				snaps = append(snaps, s)
			}
			snaps = append(snaps, ver+1)
			type view struct{ gets, scan []string }
			before := map[uint64]view{}
			for _, s := range snaps {
				g, sc := readAll(t, m, s, maxID)
				before[s] = view{g, sc}
			}
			where := make([]int32, len(m.hdrs))
			for i, hd := range m.hdrs {
				where[i] = hd.chunk
			}
			got, want := m.GC(h), model.gc(h)
			if got != want {
				t.Fatalf("seed %d: GC(%d) reclaimed %d versions, the model %d", seed, h, got, want)
			}
			reclaimed += got
			for i, hd := range m.hdrs {
				if i < len(where) && hd.chunk != noChunk && where[i] != noChunk && hd.chunk != where[i] {
					evacuated++
				}
			}
			for _, s := range snaps {
				g, sc := readAll(t, m, s, maxID)
				if !slices.Equal(g, before[s].gets) || !slices.Equal(sc, before[s].scan) {
					t.Fatalf("seed %d: snapshot %d changed by GC(%d):\nGet  %v\n  -> %v\nScan %v\n  -> %v",
						seed, s, h, before[s].gets, g, before[s].scan, sc)
				}
				for id := schema.RowID(0); id < maxID; id++ {
					r, ok := m.Get(id, allCols(len(kinds)), s)
					if want, live := model.at(id, s); ok != live || ok && fmt.Sprint(r.Vals) != fmt.Sprint(want) {
						t.Fatalf("seed %d: row %d at snapshot %d reads %v (%v), the writes left %v (%v)", seed, id, s, r.Vals, ok, want, live)
					}
				}
			}
			if st, want := m.Stats(), model.stats(m); st != want {
				t.Fatalf("seed %d: after GC(%d) Stats = %+v, the model holds %+v", seed, h, st, want)
			}
			recount(t, m)
		}
		if reclaimed == 0 {
			t.Errorf("seed %d: GC never reclaimed a version", seed)
		}
	}
	t.Logf("%d versions evacuated, %d emptied chunks reused", evacuated, reused)
	if evacuated == 0 || reused == 0 {
		t.Errorf("%d versions evacuated and %d emptied chunks reused over every seed: the runs did not exercise the arena", evacuated, reused)
	}
}

// TestNullRoundTrip: both row stores keep NULL — loaded, inserted, written
// by an update and overwritten by one — through Get, a projected scan and a
// predicate, which a NULL cell never satisfies.
func TestNullRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			rows := []schema.Row{mkRow(1), mkRow(2), mkRow(3)}
			rows[0].Vals[1] = types.Null()
			if err := load(s, testKinds, rows, 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Insert(schema.Row{ID: 4, Vals: []types.Value{types.Null(), types.NewString("short"), types.Null()}}, 2); err != nil {
				t.Fatal(err)
			}
			// Row 2's long string and float become NULL; row 1's string
			// becomes a value again.
			if err := s.Update(2, []schema.ColID{1, 2}, []types.Value{types.Null(), types.Null()}, 3); err != nil {
				t.Fatal(err)
			}
			if err := s.Update(1, []schema.ColID{1}, []types.Value{types.NewString("back-from-null-long")}, 3); err != nil {
				t.Fatal(err)
			}
			want := map[schema.RowID]string{
				1: "[10 back-from-null-long 0.5]",
				2: "[20 NULL NULL]",
				3: "[30 name-3-with-long-suffix 1.5]",
				4: "[NULL short NULL]",
			}
			all := []schema.ColID{0, 1, 2}
			for id, w := range want {
				if r, ok := s.Get(id, all, storage.Latest); !ok || fmt.Sprint(r.Vals) != w {
					t.Errorf("Get(%d) = %v (%v), want %s", id, r.Vals, ok, w)
				}
			}
			if r, _ := s.Get(2, all, 2); fmt.Sprint(r.Vals) != "[20 name-2-with-long-suffix 1]" {
				t.Errorf("Get(2) before the update to NULL = %v", r.Vals)
			}
			if r, _ := s.Get(1, all, 2); fmt.Sprint(r.Vals) != "[10 NULL 0.5]" {
				t.Errorf("Get(1) before the update from NULL = %v", r.Vals)
			}
			var scanned []string
			pred := storage.Pred{{Col: 2, Op: storage.CmpLt, Val: types.NewFloat64(10)}}
			s.ScanBatches([]schema.ColID{1, 0}, pred, storage.MinRow, storage.MaxRow, storage.Latest, 0, func(b *storage.Batch) bool {
				b.Selected(func(r int) bool {
					scanned = append(scanned, fmt.Sprint(b.RowIDs[r], b.Row(r, nil)))
					return true
				})
				return true
			})
			if got := strings.Join(scanned, " "); got != "1 [back-from-null-long 10] 3 [name-3-with-long-suffix 30]" {
				t.Errorf("scan of c2 < 10 = %s", got)
			}
		})
	}
}

// TestMemReadsRaceGC runs point reads and scans against a writer that
// updates most rows every round and a few every 50th, and collects garbage
// at the newest version, so that chunks empty, get reused and get
// evacuated under the readers. Every row's two string columns are written together from one
// counter, so a read that saw bytes being moved or overwritten would find
// them disagreeing. Run under -race it also checks that reads decode only
// under the read lock.
func TestMemReadsRaceGC(t *testing.T) {
	const rows, rounds = 64, 300
	kinds := []types.Kind{types.KindInt64, types.KindString, types.KindString}
	val := func(n int) []types.Value {
		return []types.Value{types.NewInt64(int64(n)), types.NewString(fmt.Sprintf("left-%08d", n)), types.NewString(fmt.Sprintf("right-%08d", n))}
	}
	m := NewMem(kinds)
	base := make([]schema.Row, rows)
	for i := range base {
		base[i] = schema.Row{ID: schema.RowID(i), Vals: val(0)}
	}
	if err := load(m, kinds, base, 1); err != nil {
		t.Fatal(err)
	}
	consistent := func(vals []types.Value) bool {
		n := vals[0].Int()
		return vals[1].Str() == fmt.Sprintf("left-%08d", n) && vals[2].Str() == fmt.Sprintf("right-%08d", n)
	}
	var bad, reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for id := 0; ; id = (id + 7) % rows {
			select {
			case <-stop:
				return
			default:
			}
			if r, ok := m.Get(schema.RowID(id), []schema.ColID{0, 1, 2}, storage.Latest); !ok || !consistent(r.Vals) {
				bad.Add(1)
			}
			reads.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := 0
			m.ScanBatches([]schema.ColID{0, 1, 2}, nil, storage.MinRow, storage.MaxRow, storage.Latest, 16, func(b *storage.Batch) bool {
				b.Selected(func(r int) bool {
					if !consistent(b.Row(r, nil)) {
						bad.Add(1)
					}
					n++
					return true
				})
				return true
			})
			if n != rows {
				bad.Add(1)
			}
			reads.Add(1)
		}
	}()
	ver := uint64(1)
	for round := 1; round <= rounds; round++ {
		for id := 0; id < rows; id++ {
			if id >= rows-8 && round%50 != 1 {
				continue // its version outlives the rest of its chunk, which is evacuated
			}
			ver++
			if err := m.Update(schema.RowID(id), []schema.ColID{0, 1, 2}, val(round)[:3], ver); err != nil {
				t.Fatal(err)
			}
		}
		m.GC(ver)
	}
	close(stop)
	wg.Wait()
	recount(t, m)
	if bad.Load() != 0 {
		t.Errorf("%d of %d reads under GC saw a torn or missing row", bad.Load(), reads.Load())
	}
}

// TestMemSteadyStateAllocs: once the arena has warmed up, updates with a GC
// every 100 reuse headers and chunks — next to no allocation per update —
// and the arena does not grow with the number of updates.
func TestMemSteadyStateAllocs(t *testing.T) {
	kinds := []types.Kind{types.KindInt64, types.KindString, types.KindString}
	const rows = 1000
	m := NewMem(kinds)
	data := make([]schema.Row, rows)
	for i := range data {
		data[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(int64(i)), types.NewString(fmt.Sprintf("%016d", i)), types.NewString("short")}}
	}
	if err := load(m, kinds, data, 1); err != nil {
		t.Fatal(err)
	}
	cols := []schema.ColID{0, 1}
	vals := []types.Value{types.NewInt64(-1), types.NewString("abcdefghijklmnop")}
	ver, next := uint64(1), 0
	updates := func(n int) {
		for i := 0; i < n; i++ {
			ver++
			if err := m.Update(schema.RowID(next*37%rows), cols, vals, ver); err != nil {
				t.Fatal(err)
			}
			if next++; next%100 == 0 {
				m.GC(ver)
			}
		}
	}
	arena := func() int {
		n := 0
		for _, c := range m.chunks[1:] {
			n += cap(c.buf)
		}
		return n
	}
	updates(20000) // warm-up: every row rewritten, the arena at its working size
	warm := arena()
	const n = 10000
	per := testing.AllocsPerRun(1, func() { updates(n) }) / n
	t.Logf("%.4f allocations per update; arena %d B after warm-up, %d B after %d more updates", per, warm, arena(), n)
	if per > 0.05 {
		t.Errorf("%.4f allocations per update in the steady state, want at most 0.05", per)
	}
	if arena() > warm {
		t.Errorf("the arena grew from %d to %d bytes over %d updates", warm, arena(), n)
	}
	recount(t, m)
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

func allCols(n int) []schema.ColID {
	out := make([]schema.ColID, n)
	for i := range out {
		out[i] = schema.ColID(i)
	}
	return out
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
