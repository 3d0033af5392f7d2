package metadata

import (
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
