package cost

import (
	"math/rand"
	"testing"
	"time"

	"proteus/internal/storage"
)

func rowLayout() storage.Layout { return storage.DefaultRowLayout() }
func colLayout() storage.Layout { return storage.DefaultColumnLayout() }

func TestBootstrapShapes(t *testing.T) {
	m := NewModel()
	// Column scan with narrow projection must be cheaper than row scan of
	// the same relation (Figure 3's asymmetry).
	rowScan := m.Predict(OpScan, ScanSeq, rowLayout(), ScanFeatures(10000, 80, 8, 1))
	colScan := m.Predict(OpScan, ScanSeq, colLayout(), ScanFeatures(10000, 80, 8, 1))
	if colScan >= rowScan {
		t.Errorf("col scan %v !< row scan %v", colScan, rowScan)
	}
	// Row write cheaper than column write? Paper Fig 3a: row updates ~2x
	// faster than column. Column writes here hit the delta store (cheap),
	// but merged costs appear in scans; at minimum both are positive.
	rowWrite := m.Predict(OpWrite, VariantDefault, rowLayout(), WriteFeatures(10, 80))
	colWrite := m.Predict(OpWrite, VariantDefault, colLayout(), WriteFeatures(10, 80))
	if rowWrite <= 0 || colWrite <= 0 {
		t.Errorf("writes: %v %v", rowWrite, colWrite)
	}
	// Disk point read dominated by seek.
	diskLayout := storage.Layout{Format: storage.RowFormat, Tier: storage.DiskTier, SortBy: storage.NoSort}
	diskRead := m.Predict(OpPointRead, VariantDefault, diskLayout, PointReadFeatures(5, 80))
	memRead := m.Predict(OpPointRead, VariantDefault, rowLayout(), PointReadFeatures(5, 80))
	if diskRead < 10*memRead {
		t.Errorf("disk read %v not >> mem read %v", diskRead, memRead)
	}
	// Compressed scan cheaper than uncompressed.
	rle := storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort, Compressed: true}
	rleScan := m.Predict(OpScan, ScanSeq, rle, ScanFeatures(10000, 80, 8, 1))
	if rleScan >= colScan {
		t.Errorf("rle scan %v !< col scan %v", rleScan, colScan)
	}
	// Sorted scan with low selectivity cheaper than sequential.
	sorted := storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: 0}
	narrow := m.Predict(OpScan, ScanSorted, sorted, ScanFeatures(10000, 80, 8, 0.01))
	full := m.Predict(OpScan, ScanSeq, colLayout(), ScanFeatures(10000, 80, 8, 1))
	if narrow >= full {
		t.Errorf("sorted narrow scan %v !< full scan %v", narrow, full)
	}
}

func TestDistributedCommitCostlier(t *testing.T) {
	m := NewModel()
	local := m.Predict(OpCommit, VariantDefault, storage.Layout{}, CommitFeatures(2, 2, 1))
	dist := m.Predict(OpCommit, VariantDefault, storage.Layout{}, CommitFeatures(2, 2, 3))
	if dist <= local {
		t.Errorf("2PC %v !> local %v", dist, local)
	}
}

func TestLearningOverridesBootstrap(t *testing.T) {
	m := NewModel()
	l := rowLayout()
	// Feed a synthetic "true" cost: latency = 3us per cell.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		cells := 1 + r.Intn(100)
		m.Observe(Observation{
			Op: OpWrite, Layout: l,
			Features: WriteFeatures(cells, 80),
			Latency:  time.Duration(cells*3) * time.Microsecond,
		})
	}
	got := m.Predict(OpWrite, VariantDefault, l, WriteFeatures(50, 80))
	want := 150 * time.Microsecond
	if got < want/2 || got > want*2 {
		t.Errorf("learned predict = %v, want ~%v", got, want)
	}
	if m.Observations(OpWrite) != 500 {
		t.Errorf("observations = %d", m.Observations(OpWrite))
	}
}

func TestLayoutsLearnedSeparately(t *testing.T) {
	m := NewModel()
	for i := 0; i < 200; i++ {
		m.Observe(Observation{Op: OpWrite, Layout: rowLayout(),
			Features: WriteFeatures(10, 80), Latency: 10 * time.Microsecond})
		m.Observe(Observation{Op: OpWrite, Layout: colLayout(),
			Features: WriteFeatures(10, 80), Latency: 200 * time.Microsecond})
	}
	row := m.Predict(OpWrite, VariantDefault, rowLayout(), WriteFeatures(10, 80))
	col := m.Predict(OpWrite, VariantDefault, colLayout(), WriteFeatures(10, 80))
	if row >= col {
		t.Errorf("per-layout models not separate: row %v col %v", row, col)
	}
}

func TestAgnosticOpsIgnoreLayout(t *testing.T) {
	m := NewModel()
	for i := 0; i < 100; i++ {
		m.Observe(Observation{Op: OpNetwork, Layout: rowLayout(),
			Features: NetworkFeatures(0, 0, 1000, 100), Latency: 80 * time.Microsecond})
	}
	// Observations made under one layout inform predictions under another.
	a := m.Predict(OpNetwork, VariantDefault, rowLayout(), NetworkFeatures(0, 0, 1000, 100))
	b := m.Predict(OpNetwork, VariantDefault, colLayout(), NetworkFeatures(0, 0, 1000, 100))
	if a != b {
		t.Errorf("agnostic op diverges by layout: %v vs %v", a, b)
	}
}

func TestAccuracyTracked(t *testing.T) {
	m := NewModel()
	for i := 0; i < 50; i++ {
		m.Observe(Observation{Op: OpLock, Features: LockFeatures(0, 0), Latency: time.Microsecond})
	}
	acc := m.Accuracy()
	if _, ok := acc[OpLock]; !ok {
		t.Error("no accuracy for observed op")
	}
}

func TestVariantsSeparate(t *testing.T) {
	m := NewModel()
	l := colLayout()
	for i := 0; i < 200; i++ {
		m.Observe(Observation{Op: OpJoin, Variant: JoinHashBatch, Layout: l,
			Features: JoinFeatures(100, 100, 100, 32, 0.5), Latency: 10 * time.Microsecond})
		m.Observe(Observation{Op: OpJoin, Variant: JoinHash, Layout: l,
			Features: JoinFeatures(100, 100, 100, 32, 0.5), Latency: 5 * time.Millisecond})
	}
	batch := m.Predict(OpJoin, JoinHashBatch, l, JoinFeatures(100, 100, 100, 32, 0.5))
	row := m.Predict(OpJoin, JoinHash, l, JoinFeatures(100, 100, 100, 32, 0.5))
	if batch >= row {
		t.Errorf("variants not separate: batch %v row %v", batch, row)
	}
}

func TestOpStringsAndAwareness(t *testing.T) {
	if OpScan.String() != "scan" || OpCommit.String() != "commit" {
		t.Error("op names wrong")
	}
	if !OpScan.LayoutAware() || OpNetwork.LayoutAware() {
		t.Error("awareness wrong")
	}
	if JoinHashBatch.String() != "hashbatch" {
		t.Errorf("variant name = %q", JoinHashBatch.String())
	}
}

func TestPredictNeverNegative(t *testing.T) {
	m := NewModel()
	// Train with tiny latencies then ask for an extrapolation that a raw
	// linear model could send negative.
	for i := 0; i < 100; i++ {
		m.Observe(Observation{Op: OpWaitUpdates, Features: WaitFeatures(100 - i), Latency: time.Duration(100-i) * time.Microsecond})
	}
	if got := m.Predict(OpWaitUpdates, VariantDefault, storage.Layout{}, WaitFeatures(0)); got < 0 {
		t.Errorf("negative prediction %v", got)
	}
}
