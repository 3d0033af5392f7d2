package metadata

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"proteus/internal/forecast"
	"proteus/internal/partition"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
)

func dir() *Directory { return NewDirectory(forecast.DefaultConfig()) }

func b(table schema.TableID, rlo, rhi schema.RowID, clo, chi schema.ColID) partition.Bounds {
	return partition.Bounds{Table: table, RowStart: rlo, RowEnd: rhi, ColStart: clo, ColEnd: chi}
}

func repl(site simnet.SiteID) Replica {
	return Replica{Site: site, Layout: storage.DefaultRowLayout()}
}

func TestRegisterLookup(t *testing.T) {
	d := dir()
	id := d.AllocID()
	m := d.Register(id, b(1, 0, 100, 0, 5), repl(0), nil)
	got, ok := d.Get(id)
	if !ok || got != m {
		t.Fatal("Get failed")
	}
	if got.Master().Site != 0 {
		t.Error("master wrong")
	}
	d.Replace([]partition.ID{id})
	if _, ok := d.Get(id); ok {
		t.Error("unregistered partition still present")
	}
	if len(d.TablePartitions(1)) != 0 {
		t.Error("table index not cleaned")
	}
}

// TestReplaceNeverShowsAGap splits and merges a row range over and over
// while readers look rows up: every lookup must find exactly the one
// partition covering the row, never none (the old partitions already gone,
// the new ones not yet there) and never two. `go test -race` runs it in CI.
func TestReplaceNeverShowsAGap(t *testing.T) {
	d := dir()
	whole := d.Register(d.AllocID(), b(1, 0, 100, 0, 5), repl(0), nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for row := schema.RowID(0); ; row = (row + 7) % 100 {
				select {
				case <-stop:
					return
				default:
				}
				if got := d.PartitionForRow(1, row, nil); len(got) != 1 {
					t.Errorf("row %d covered by %d partitions", row, len(got))
					return
				}
			}
		}()
	}
	for i := 0; i < 2000 && !t.Failed(); i++ {
		lo := d.NewMeta(d.AllocID(), b(1, 0, 50, 0, 5), repl(0), nil)
		hi := d.NewMeta(d.AllocID(), b(1, 50, 100, 0, 5), repl(0), nil)
		d.Replace([]partition.ID{whole.ID}, lo, hi)
		whole = d.NewMeta(d.AllocID(), b(1, 0, 100, 0, 5), repl(0), nil)
		d.Replace([]partition.ID{lo.ID, hi.ID}, whole)
	}
	close(stop)
	wg.Wait()
	if err := d.Validate(1, 100, 5); err != nil {
		t.Error(err)
	}
}

func TestAllocIDsUnique(t *testing.T) {
	d := dir()
	seen := map[partition.ID]bool{}
	for i := 0; i < 100; i++ {
		id := d.AllocID()
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestPartitionsForRowsAndCols(t *testing.T) {
	d := dir()
	// Table 1 tiled: rows [0,50) full cols; rows [50,100) split at col 3.
	p1 := d.Register(d.AllocID(), b(1, 0, 50, 0, 5), repl(0), nil)
	p2 := d.Register(d.AllocID(), b(1, 50, 100, 0, 3), repl(1), nil)
	p3 := d.Register(d.AllocID(), b(1, 50, 100, 3, 5), repl(1), nil)

	got := d.PartitionsFor(1, 0, 100, nil)
	if len(got) != 3 {
		t.Fatalf("all partitions = %d", len(got))
	}
	if got[0] != p1 || got[1] != p2 || got[2] != p3 {
		t.Error("ordering wrong")
	}
	// Only rows >= 50, column 4: just p3.
	got = d.PartitionsFor(1, 50, 100, []schema.ColID{4})
	if len(got) != 1 || got[0] != p3 {
		t.Errorf("filtered = %v", got)
	}
	// Single row lookup spanning the vertical split returns both.
	got = d.PartitionForRow(1, 60, []schema.ColID{0, 4})
	if len(got) != 2 {
		t.Errorf("row 60 partitions = %d", len(got))
	}
	// Other tables invisible.
	if len(d.PartitionsFor(2, 0, 100, nil)) != 0 {
		t.Error("cross-table leak")
	}
}

func TestReplicaManagement(t *testing.T) {
	d := dir()
	m := d.Register(d.AllocID(), b(1, 0, 10, 0, 2), repl(0), nil)
	m.AddReplica(Replica{Site: 1, Layout: storage.DefaultColumnLayout()})
	m.AddReplica(Replica{Site: 2, Layout: storage.DefaultColumnLayout()})
	if len(m.Replicas()) != 2 || len(m.AllCopies()) != 3 {
		t.Fatal("replica counts wrong")
	}
	if !m.HasCopyAt(0) || !m.HasCopyAt(2) || m.HasCopyAt(9) {
		t.Error("HasCopyAt wrong")
	}
	if !m.RemoveReplica(1) {
		t.Error("remove failed")
	}
	if m.RemoveReplica(1) {
		t.Error("double remove succeeded")
	}
	if !m.SetReplicaLayout(2, storage.DefaultRowLayout()) {
		t.Error("SetReplicaLayout failed")
	}
	if m.Replicas()[0].Layout.Format != storage.RowFormat {
		t.Error("layout not updated")
	}
	// Master layout update via SetReplicaLayout.
	if !m.SetReplicaLayout(0, storage.DefaultColumnLayout()) {
		t.Error("master layout update failed")
	}
	if m.Master().Layout.Format != storage.ColumnFormat {
		t.Error("master layout wrong")
	}
	m.SetMaster(Replica{Site: 5, Layout: storage.DefaultRowLayout()})
	if m.Master().Site != 5 {
		t.Error("SetMaster failed")
	}
}

func TestCoAccess(t *testing.T) {
	d := dir()
	m := d.Register(d.AllocID(), b(1, 0, 10, 0, 2), repl(0), nil)
	m.RecordCoAccess(7, 1)
	m.RecordCoAccess(8, 5)
	m.RecordCoAccess(7, 1)
	top := m.CoAccessed(1)
	if len(top) != 1 || top[0] != 8 {
		t.Errorf("top co-access = %v", top)
	}
	all := m.CoAccessed(0)
	if len(all) != 2 {
		t.Errorf("all co-access = %v", all)
	}
}

func TestColumnStats(t *testing.T) {
	d := dir()
	d.InitColStats(1, []float64{8, 8, 100})
	d.RecordColumnAccess(1, []schema.ColID{0, 2}, false)
	d.RecordColumnAccess(1, []schema.ColID{2}, true)
	cs := d.ColumnStats(1)
	if cs[0].Reads != 1 || cs[2].Reads != 1 || cs[2].Writes != 1 {
		t.Errorf("stats = %+v", cs)
	}
	if got := d.AvgRowBytes(1, nil); got != 116 {
		t.Errorf("row bytes = %d", got)
	}
	if got := d.AvgRowBytes(1, []schema.ColID{2}); got != 100 {
		t.Errorf("col-2 bytes = %d", got)
	}
}

func TestValidateTiling(t *testing.T) {
	d := dir()
	d.Register(d.AllocID(), b(1, 0, 50, 0, 5), repl(0), nil)
	d.Register(d.AllocID(), b(1, 50, 100, 0, 3), repl(1), nil)
	d.Register(d.AllocID(), b(1, 50, 100, 3, 5), repl(1), nil)
	if err := d.Validate(1, 100, 5); err != nil {
		t.Errorf("valid tiling rejected: %v", err)
	}
	// Introduce a gap.
	d.Register(d.AllocID(), b(2, 0, 50, 0, 5), repl(0), nil)
	if err := d.Validate(2, 100, 5); err == nil {
		t.Error("gap not detected")
	}
	// Introduce overlap.
	d.Register(d.AllocID(), b(3, 0, 100, 0, 5), repl(0), nil)
	d.Register(d.AllocID(), b(3, 50, 100, 0, 5), repl(0), nil)
	if err := d.Validate(3, 100, 5); err == nil {
		t.Error("overlap not detected")
	}
}

func TestTrackerAttached(t *testing.T) {
	d := dir()
	m := d.Register(d.AllocID(), b(1, 0, 10, 0, 2), repl(0), nil)
	m.Tracker.Record(forecast.Scan, 3)
	if m.Tracker.Total(forecast.Scan) != 3 {
		t.Error("tracker not recording")
	}
}

// filterAndSort is the lookup AppendForRow replaced, kept as its oracle:
// every registered partition filtered by table, row and columns, then
// sorted by (RowStart, ColStart).
func filterAndSort(d *Directory, table schema.TableID, row schema.RowID, cols []schema.ColID) []*PartitionMeta {
	var out []*PartitionMeta
	for _, m := range d.All() {
		if m.Bounds.Table != table || !m.Bounds.OverlapsRows(row, row+1) {
			continue
		}
		covered := len(cols) == 0
		for _, c := range cols {
			covered = covered || m.Bounds.ContainsCol(c)
		}
		if covered {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bounds.RowStart != out[j].Bounds.RowStart {
			return out[i].Bounds.RowStart < out[j].Bounds.RowStart
		}
		return out[i].Bounds.ColStart < out[j].Bounds.ColStart
	})
	return out
}

const (
	tileRows = 1000
	tileCols = 6
)

// randomTiling registers a table's tiling in random order: random
// horizontal ranges, each cut into one to three column groups.
func randomTiling(d *Directory, rng *rand.Rand, table schema.TableID) {
	var pieces []*PartitionMeta
	for lo := schema.RowID(0); lo < tileRows; {
		hi := min(lo+schema.RowID(1+rng.Intn(300)), tileRows)
		clo := schema.ColID(0)
		for groups := 1 + rng.Intn(3); groups > 0 && clo < tileCols; groups-- {
			chi := schema.ColID(tileCols)
			if groups > 1 {
				chi = min(clo+schema.ColID(1+rng.Intn(3)), tileCols)
			}
			pieces = append(pieces, d.NewMeta(d.AllocID(), b(table, lo, hi, clo, chi), repl(0), nil))
			clo = chi
		}
		lo = hi
	}
	rng.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })
	for _, m := range pieces {
		d.Replace(nil, m)
	}
}

// reshape applies one random split or merge to a table's tiling through
// Replace: a horizontal or vertical split of a piece, or the merge of a
// piece with the one below it when both cover the same columns.
func reshape(d *Directory, rng *rand.Rand, table schema.TableID) {
	parts := d.TablePartitions(table)
	m := parts[rng.Intn(len(parts))]
	bd := m.Bounds
	switch rng.Intn(3) {
	case 0:
		if bd.RowEnd-bd.RowStart < 2 {
			return
		}
		cut := bd.RowStart + 1 + schema.RowID(rng.Intn(int(bd.RowEnd-bd.RowStart-1)))
		d.Replace([]partition.ID{m.ID},
			d.NewMeta(d.AllocID(), b(table, bd.RowStart, cut, bd.ColStart, bd.ColEnd), repl(0), nil),
			d.NewMeta(d.AllocID(), b(table, cut, bd.RowEnd, bd.ColStart, bd.ColEnd), repl(0), nil))
	case 1:
		if bd.NumCols() < 2 {
			return
		}
		cut := bd.ColStart + 1 + schema.ColID(rng.Intn(bd.NumCols()-1))
		d.Replace([]partition.ID{m.ID},
			d.NewMeta(d.AllocID(), b(table, bd.RowStart, bd.RowEnd, bd.ColStart, cut), repl(0), nil),
			d.NewMeta(d.AllocID(), b(table, bd.RowStart, bd.RowEnd, cut, bd.ColEnd), repl(0), nil))
	default:
		for _, o := range parts {
			ob := o.Bounds
			if ob.RowStart == bd.RowEnd && ob.ColStart == bd.ColStart && ob.ColEnd == bd.ColEnd {
				d.Replace([]partition.ID{m.ID, o.ID},
					d.NewMeta(d.AllocID(), b(table, bd.RowStart, ob.RowEnd, bd.ColStart, bd.ColEnd), repl(0), nil))
				return
			}
		}
	}
}

// TestAppendForRowMatchesFilter compares AppendForRow with the
// filter-and-sort it replaced on seeded random tilings — horizontal and
// vertical pieces, registered in random order beside a second table —
// through a sequence of Replace splits and merges, for every row at a
// piece boundary and random others, under no, one and two columns. The
// concurrent case runs lookups while Replace reshapes the table: every
// lookup must see the row's columns tiled exactly once. `go test -race`
// runs it in CI.
func TestAppendForRowMatchesFilter(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := dir()
		randomTiling(d, rng, 1)
		randomTiling(d, rng, 2)
		sentinel := d.NewMeta(d.AllocID(), b(9, 0, 1, 0, 1), repl(0), nil)
		for step := 0; step < 40; step++ {
			reshape(d, rng, 1)
			if err := d.Validate(1, tileRows, tileCols); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			var rows []schema.RowID
			for _, m := range d.TablePartitions(1) {
				rows = append(rows, m.Bounds.RowStart, m.Bounds.RowEnd-1)
			}
			for i := 0; i < 20; i++ {
				rows = append(rows, schema.RowID(rng.Intn(tileRows)))
			}
			for _, row := range rows {
				c1, c2 := schema.ColID(rng.Intn(tileCols)), schema.ColID(rng.Intn(tileCols))
				for _, cols := range [][]schema.ColID{nil, {c1}, {c1, c2}} {
					want := filterAndSort(d, 1, row, cols)
					got := d.AppendForRow([]*PartitionMeta{sentinel}, 1, row, cols)
					if got[0] != sentinel || !slices.Equal(got[1:], want) {
						t.Fatalf("seed %d step %d: row %d cols %v: AppendForRow %v, filter %v",
							seed, step, row, cols, bounds(got[1:]), bounds(want))
					}
				}
			}
		}
	}

	t.Run("concurrent-replace", func(t *testing.T) {
		d := dir()
		randomTiling(d, rand.New(rand.NewSource(7)), 1)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []*PartitionMeta
				for row := schema.RowID(r); ; row = (row + 13) % tileRows {
					select {
					case <-stop:
						return
					default:
					}
					buf = d.AppendForRow(buf[:0], 1, row, nil)
					var covered [tileCols]int
					for _, m := range buf {
						for c := m.Bounds.ColStart; c < m.Bounds.ColEnd; c++ {
							covered[c]++
						}
					}
					if covered != [tileCols]int{1, 1, 1, 1, 1, 1} {
						t.Errorf("row %d: pieces %v do not tile its columns", row, bounds(buf))
						return
					}
				}
			}()
		}
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 2000 && !t.Failed(); i++ {
			reshape(d, rng, 1)
		}
		close(stop)
		wg.Wait()
		if err := d.Validate(1, tileRows, tileCols); err != nil {
			t.Error(err)
		}
	})
}

func bounds(ms []*PartitionMeta) []partition.Bounds {
	out := make([]partition.Bounds, len(ms))
	for i, m := range ms {
		out[i] = m.Bounds
	}
	return out
}
