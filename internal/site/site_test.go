package site

import (
	"sync"
	"testing"
	"time"

	"proteus/internal/cost"
	"proteus/internal/partition"
	"proteus/internal/redolog"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

func newSite(t *testing.T) *Site {
	t.Helper()
	s := New(0, Config{}, redolog.NewBroker(), nil, -1)
	t.Cleanup(s.Close)
	return s
}

func newPart(s *Site, id partition.ID) *partition.Partition {
	b := partition.Bounds{RowStart: 0, RowEnd: 100, ColStart: 0, ColEnd: 2}
	kinds := []types.Kind{types.KindInt64, types.KindString}
	return partition.New(id, b, kinds, storage.DefaultRowLayout(), s.Factory)
}

func TestPartitionRegistry(t *testing.T) {
	s := newSite(t)
	p := newPart(s, 7)
	s.AddPartition(p, true)
	got, ok := s.Partition(7)
	if !ok || got != p {
		t.Fatal("lookup failed")
	}
	if !s.IsMaster(7) {
		t.Error("master flag lost")
	}
	s.SetMaster(7, false)
	if s.IsMaster(7) {
		t.Error("SetMaster failed")
	}
	if len(s.Partitions()) != 1 {
		t.Error("Partitions() wrong")
	}
	s.RemovePartition(7)
	if _, ok := s.Partition(7); ok {
		t.Error("remove failed")
	}
	if _, err := s.MustPartition(7); err == nil {
		t.Error("MustPartition on missing succeeded")
	}
}

func TestPoolsExecuteAndIsolate(t *testing.T) {
	s := newSite(t)
	var mu sync.Mutex
	order := []string{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			s.RunOLTP(func() {
				mu.Lock()
				order = append(order, "oltp")
				mu.Unlock()
			})
		}()
		go func() {
			defer wg.Done()
			s.RunOLAP(func() {
				mu.Lock()
				order = append(order, "olap")
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	if len(order) != 16 {
		t.Errorf("ran %d tasks", len(order))
	}
	if cpu := s.CPU(); cpu < 0 || cpu > 1 {
		t.Errorf("cpu = %f", cpu)
	}
}

func TestObservationBuffer(t *testing.T) {
	s := newSite(t)
	s.Observe(cost.Observation{Op: cost.OpScan, Features: cost.Features{1}, Latency: time.Microsecond})
	obs := s.DrainObservations()
	if len(obs) != 1 {
		t.Fatalf("drained %d observations", len(obs))
	}
	if len(s.DrainObservations()) != 0 {
		t.Error("drain not clearing")
	}
}

func TestMemUsageAndCapacity(t *testing.T) {
	s := newSite(t)
	p := newPart(s, 1)
	_ = p.Load([]schema.Row{{ID: 1, Vals: []types.Value{types.NewInt64(1), types.NewString("abcdefghijkl")}}}, 1)
	s.AddPartition(p, true)
	if s.MemUsage() <= 0 {
		t.Error("memory usage not counted")
	}
	s.SetMemCapacity(12345)
	if s.MemCapacity() != 12345 {
		t.Error("capacity set/get failed")
	}
	// Disk-tier copies do not count toward memory.
	if err := p.ChangeLayout(storage.Layout{Format: storage.RowFormat, Tier: storage.DiskTier, SortBy: storage.NoSort}, s.Factory, storage.Latest); err != nil {
		t.Fatal(err)
	}
	if s.MemUsage() != 0 {
		t.Errorf("disk copy counted as memory: %d", s.MemUsage())
	}
	if s.DiskUsage() <= 0 {
		t.Error("disk usage not counted")
	}
}

func TestMaintainObservesMergeCost(t *testing.T) {
	s := newSite(t)
	b := partition.Bounds{RowStart: 0, RowEnd: 100, ColStart: 0, ColEnd: 2}
	kinds := []types.Kind{types.KindInt64, types.KindString}
	p := partition.New(2, b, kinds, storage.DefaultColumnLayout(), s.Factory)
	var rows []schema.Row
	for i := int64(0); i < 10; i++ {
		rows = append(rows, schema.Row{ID: schema.RowID(i), Vals: []types.Value{types.NewInt64(i), types.NewString("v")}})
	}
	_ = p.Load(rows, 1)
	s.AddPartition(p, true)
	for i := int64(0); i < 5; i++ {
		_ = p.Update(schema.RowID(i), []schema.ColID{0}, []types.Value{types.NewInt64(-i)}, 2)
	}
	s.Maintain(3)
	obs := s.DrainObservations()
	found := false
	for _, o := range obs {
		if o.Op == cost.OpWrite && o.Layout.Format == storage.ColumnFormat {
			found = true
		}
	}
	if !found {
		t.Error("merge cost not attributed to column write model")
	}
	if p.Stats().DeltaRows != 0 {
		t.Error("delta not merged")
	}
}
