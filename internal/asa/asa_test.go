package asa

import (
	"testing"
	"time"

	"proteus/internal/cost"
	"proteus/internal/partition"
	"proteus/internal/storage"
)

func evaluator() *Evaluator {
	return &Evaluator{Model: cost.NewModel(), Lambda: 3}
}

func baseView(rows int) PartitionView {
	return PartitionView{
		PID:    1,
		Bounds: partition.Bounds{RowStart: 0, RowEnd: 10000, ColStart: 0, ColEnd: 5},
		Rows:   rows, RowBytes: 60,
		Master:          ReplicaView{Site: 0, Layout: storage.DefaultRowLayout()},
		ScanSelectivity: 1, AvgUpdateCols: 2,
		CoAccessSite: -1,
	}
}

func rates(upd, scan float64) AccessRates {
	return AccessRates{Updates: upd, Scans: scan, Prob: 1, Delay: 0.01}
}

func TestFormatChangePositiveForScanHeavy(t *testing.T) {
	ev := evaluator()
	v := baseView(5000)
	v.Rates = rates(0, 500)
	c := ev.Evaluate(v, Candidate{Kind: ChangeFormat, PID: 1, Site: 0, NewLayout: storage.DefaultColumnLayout()})
	if c.Net <= 0 {
		t.Errorf("scan-heavy row->column N(S) = %f, want > 0", c.Net)
	}
}

func TestFormatChangeNegativeForIdlePartition(t *testing.T) {
	ev := evaluator()
	v := baseView(5000)
	v.Rates = AccessRates{} // no predicted accesses: only upfront cost remains
	c := ev.Evaluate(v, Candidate{Kind: ChangeFormat, PID: 1, Site: 0, NewLayout: storage.DefaultColumnLayout()})
	if c.Net >= 0 {
		t.Errorf("idle partition N(S) = %f, want < 0", c.Net)
	}
}

func TestTierDemotionNegativeUnderLoad(t *testing.T) {
	ev := evaluator()
	v := baseView(5000)
	v.Rates = rates(100, 100)
	to := storage.Layout{Format: storage.RowFormat, Tier: storage.DiskTier, SortBy: storage.NoSort}
	c := ev.Evaluate(v, Candidate{Kind: ChangeTier, PID: 1, Site: 0, NewLayout: to})
	if c.Net >= 0 {
		t.Errorf("hot partition demotion N(S) = %f, want < 0", c.Net)
	}
}

func TestSplitBenefitGrowsWithContention(t *testing.T) {
	ev := evaluator()
	lo := baseView(5000)
	lo.Rates = rates(200, 0)
	hi := lo
	hi.ContentionWaiters = 8
	hi.ContentionWait = 2 * time.Millisecond

	cLo := ev.Evaluate(lo, Candidate{Kind: SplitVertical, PID: 1, Site: 0, SplitCol: 2})
	cHi := ev.Evaluate(hi, Candidate{Kind: SplitVertical, PID: 1, Site: 0, SplitCol: 2})
	if cHi.Net <= cLo.Net {
		t.Errorf("contended split N=%f should exceed uncontended N=%f", cHi.Net, cLo.Net)
	}
}

func TestEquationOneWeighting(t *testing.T) {
	// E(S,T) scales by Pr(T)/(Δ(T)+1): distant/unlikely arrivals shrink N.
	ev := evaluator()
	near := baseView(5000)
	near.Rates = AccessRates{Scans: 500, Prob: 1, Delay: 0}
	far := near
	far.Rates.Delay = 50
	unlikely := near
	unlikely.Rates.Prob = 0.01

	cand := Candidate{Kind: ChangeFormat, PID: 1, Site: 0, NewLayout: storage.DefaultColumnLayout()}
	n := ev.Evaluate(near, cand).Net
	f := ev.Evaluate(far, cand).Net
	u := ev.Evaluate(unlikely, cand).Net
	if !(n > f && n > u) {
		t.Errorf("weights broken: near=%f far=%f unlikely=%f", n, f, u)
	}
}

func TestGenerateCandidatesRespectsFlags(t *testing.T) {
	v := baseView(5000)
	v.WriteHotCols = []bool{true, false, false, false, false}
	v.ReadHotCols = []bool{false, true, true, true, true}
	v.Master.Layout = storage.DefaultColumnLayout()
	v.CoAccessSite = 1

	all := GenerateCandidates(v, AllFlags(), 3)
	kinds := map[ChangeKind]bool{}
	for _, c := range all {
		kinds[c.Kind] = true
	}
	for _, want := range []ChangeKind{ChangeFormat, ChangeTier, ChangeSort, ChangeCompress, SplitVertical, SplitHorizontal, AddReplica, ChangeMaster} {
		if !kinds[want] {
			t.Errorf("missing candidate kind %v", want)
		}
	}
	// All off -> none.
	if got := GenerateCandidates(v, Flags{}, 3); len(got) != 0 {
		t.Errorf("flags off produced %d candidates", len(got))
	}
	// Sorting/compression only apply to column format.
	v.Master.Layout = storage.DefaultRowLayout()
	rowCands := GenerateCandidates(v, AllFlags(), 3)
	for _, c := range rowCands {
		if c.Kind == ChangeSort || c.Kind == ChangeCompress {
			t.Errorf("row layout generated %v", c.Kind)
		}
	}
}

func TestVerticalCutSeparatesHotColumns(t *testing.T) {
	v := baseView(100)
	// Write-hot suffix: split before it.
	v.WriteHotCols = []bool{false, false, false, true, true}
	at, ok := verticalCut(v)
	if !ok || at != 3 {
		t.Errorf("cut = %d, %v; want 3", at, ok)
	}
	// Write-hot prefix: split after it.
	v.WriteHotCols = []bool{true, true, false, false, false}
	at, ok = verticalCut(v)
	if !ok || at != 2 {
		t.Errorf("cut = %d, %v; want 2", at, ok)
	}
	// All hot or none hot: no cut.
	v.WriteHotCols = []bool{true, true, true, true, true}
	if _, ok := verticalCut(v); ok {
		t.Error("all-hot produced a cut")
	}
	v.WriteHotCols = []bool{false, false, false, false, false}
	if _, ok := verticalCut(v); ok {
		t.Error("none-hot produced a cut")
	}
}

func TestCapacityCandidates(t *testing.T) {
	v := baseView(1000)
	v.Master.Layout = storage.DefaultColumnLayout()
	opts := CapacityCandidates(v, 0, AllFlags(), 10000)
	kinds := map[ChangeKind]bool{}
	for _, o := range opts {
		kinds[o.Candidate.Kind] = true
		if o.BytesFreed <= 0 {
			t.Error("option frees nothing")
		}
	}
	if !kinds[ChangeCompress] || !kinds[ChangeTier] {
		t.Errorf("capacity kinds = %v", kinds)
	}
	// A master move keeps the old copy at the site as a replica: it frees
	// nothing, so it is never offered.
	if kinds[ChangeMaster] {
		t.Error("capacity options include a master move")
	}
	// A replica at the pressured site yields a removal option.
	v.Replicas = []ReplicaView{{Site: 0, Layout: storage.DefaultRowLayout()}}
	v.Master.Site = 1
	opts = CapacityCandidates(v, 0, AllFlags(), 10000)
	found := false
	for _, o := range opts {
		if o.Candidate.Kind == RemoveReplica {
			found = true
		}
	}
	if !found {
		t.Error("no remove-replica option at pressured site")
	}
}

func TestChangeKindStrings(t *testing.T) {
	if ChangeFormat.String() != "format" || ChangeMaster.String() != "master" {
		t.Error("kind names wrong")
	}
}
