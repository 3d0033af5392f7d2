package asa

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"proteus/internal/cost"
	"proteus/internal/partition"
	"proteus/internal/simnet"
	"proteus/internal/storage"
)

func TestReverses(t *testing.T) {
	row, col := storage.DefaultRowLayout(), storage.DefaultColumnLayout()
	disk := row
	disk.Tier = storage.DiskTier
	sorted := col
	sorted.SortBy = 1
	sorted2 := col
	sorted2.SortBy = 2
	packed := col
	packed.Compressed = true
	c := func(k ChangeKind, site int, l storage.Layout) Candidate {
		return Candidate{Kind: k, PID: 1, Site: simSite(site), NewLayout: l}
	}
	for _, tc := range []struct {
		name       string
		prev, next Candidate
		want       bool
	}{
		{"format back", c(ChangeFormat, 0, col), c(ChangeFormat, 0, row), true},
		{"format at another copy", c(ChangeFormat, 0, col), c(ChangeFormat, 1, row), false},
		{"format then tier", c(ChangeFormat, 0, col), c(ChangeTier, 0, disk), false},
		{"tier back", c(ChangeTier, 0, disk), c(ChangeTier, 0, row), true},
		{"sort back", c(ChangeSort, 0, sorted), c(ChangeSort, 0, col), true},
		{"sort by another column", c(ChangeSort, 0, sorted), c(ChangeSort, 0, sorted2), false},
		{"compress back", c(ChangeCompress, 0, packed), c(ChangeCompress, 0, col), true},
		{"compress again", c(ChangeCompress, 0, packed), c(ChangeCompress, 0, packed), false},
		{"split-h", c(SplitHorizontal, 0, row), c(MergeWith, 0, row), false},
		{"split-v", c(SplitVertical, 0, row), c(MergeWith, 0, row), false},
		{"merge", c(MergeWith, 0, row), c(SplitHorizontal, 0, row), false},
		{"replica removed", c(AddReplica, 1, col), c(RemoveReplica, 1, storage.Layout{}), true},
		{"another replica removed", c(AddReplica, 1, col), c(RemoveReplica, 2, storage.Layout{}), false},
		{"replica re-added", c(RemoveReplica, 1, storage.Layout{}), c(AddReplica, 1, col), true},
		{"replica added elsewhere", c(RemoveReplica, 1, storage.Layout{}), c(AddReplica, 2, col), false},
		{"master moved on", c(ChangeMaster, 1, row), c(ChangeMaster, 0, row), true},
		{"master kept", c(ChangeMaster, 1, row), c(AddReplica, 0, col), false},
		{"other partition", c(ChangeFormat, 0, col), Candidate{Kind: ChangeFormat, PID: 2, NewLayout: row}, false},
	} {
		if got := Reverses(tc.prev, tc.next); got != tc.want {
			t.Errorf("%s: Reverses = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEvaluateFillsUpfront: Net is λ·(E+C) − Upfront for every change
// kind, so two evaluations at different λ agree on U and on E+C.
func TestEvaluateFillsUpfront(t *testing.T) {
	v := baseView(5000)
	v.Rates = rates(200, 200)
	v.Ongoing = rates(2, 2)
	v.Replicas = []ReplicaView{{Site: 1, Layout: storage.DefaultColumnLayout()}}
	cands := append(GenerateCandidates(v, AllFlags(), 3),
		Candidate{Kind: MergeWith, PID: 1, Other: 2}, Candidate{Kind: ChangeMaster, PID: 1, Site: 2})
	model := cost.NewModel()
	for _, c := range cands {
		a := (&Evaluator{Model: model, Lambda: 1}).Evaluate(v, c)
		b := (&Evaluator{Model: model, Lambda: 3}).Evaluate(v, c)
		if a.Upfront <= 0 || a.Upfront != b.Upfront {
			t.Errorf("%v: Upfront %v at λ=1, %v at λ=3; want equal and > 0", c.Kind, a.Upfront, b.Upfront)
			continue
		}
		effect := a.Net + a.Upfront // λ=1
		if want := 3*effect - b.Upfront; math.Abs(b.Net-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("%v: Net = %v at λ=3, want 3·(E+C) − U = %v", c.Kind, b.Net, want)
		}
	}
}

func simSite(s int) simnet.SiteID { return simnet.SiteID(s) }

func opt(pid partition.ID, k ChangeKind, site int, net float64) Option {
	return Option{Candidate: Candidate{Kind: k, PID: pid, Site: simSite(site), Net: net, Upfront: 10}}
}

func kindsOf(plan []Option) []string {
	var out []string
	for _, o := range plan {
		out = append(out, o.Kind.String()+"@"+strconv.Itoa(int(o.PID)))
	}
	return out
}

func TestChooseBudgetAndOnePerPartition(t *testing.T) {
	opts := []Option{
		opt(1, ChangeFormat, 0, 500), opt(1, AddReplica, 1, 900), opt(2, ChangeTier, 0, 300),
		opt(3, ChangeFormat, 0, 100), opt(4, ChangeFormat, 0, -5),
	}
	mem := make([]Memory, 2) // unlimited
	plan := Choose(opts, mem, History{}, 2)
	if got := kindsOf(plan); !slices.Equal(got, []string{"add-replica@1", "tier@2"}) {
		t.Errorf("plan = %v, want the best change of partition 1, then partition 2's", got)
	}
	if got := kindsOf(Choose(opts, mem, History{}, 10)); !slices.Equal(got, []string{"add-replica@1", "tier@2", "format@3"}) {
		t.Errorf("unbounded plan = %v; a negative net benefit is never taken", got)
	}
	merge := Option{Candidate: Candidate{Kind: MergeWith, PID: 5, Other: 3, Net: 1000}}
	if got := kindsOf(Choose(append(opts, merge), mem, History{}, 10)); !slices.Equal(got, []string{"merge@5", "add-replica@1", "tier@2"}) {
		t.Errorf("plan with a merge = %v: the merge takes its partner", got)
	}
}

func TestChooseReversalBar(t *testing.T) {
	now := time.Unix(100, 0)
	col, row := storage.DefaultColumnLayout(), storage.DefaultRowLayout()
	prev := Executed{Candidate: Candidate{Kind: ChangeFormat, PID: 1, NewLayout: col, Upfront: 400}, At: now.Add(-time.Second)}
	back := Option{Candidate: Candidate{Kind: ChangeFormat, PID: 1, NewLayout: row}}
	hist := History{Last: map[partition.ID]Executed{1: prev}, Horizon: 5 * time.Second, Now: now}
	for _, tc := range []struct {
		net  float64
		hist History
		want int
	}{
		{300, hist, 0}, // undoes a recent change without clearing its U
		{400, hist, 0}, // must exceed it
		{401, hist, 1}, // clears both upfront costs
		{300, History{Last: hist.Last, Horizon: time.Second, Now: now}, 1}, // outside the horizon
	} {
		o := back
		o.Net = tc.net
		if got := len(Choose([]Option{o}, make([]Memory, 1), tc.hist, 3)); got != tc.want {
			t.Errorf("net %v, horizon %v: %d changes chosen, want %d", tc.net, tc.hist.Horizon, got, tc.want)
		}
	}
	// A change expected to pay forfeits that too when undone.
	earned := prev
	earned.Net = 600
	paid := History{Last: map[partition.ID]Executed{1: earned}, Horizon: 5 * time.Second, Now: now}
	for net, want := range map[float64]int{401: 0, 1000: 0, 1001: 1} {
		o := back
		o.Net = net
		if got := len(Choose([]Option{o}, make([]Memory, 1), paid, 3)); got != want {
			t.Errorf("net %v against U 400 + net 600: %d changes chosen, want %d", net, got, want)
		}
	}
	// The bar binds a freeing option too, which is otherwise taken at any net.
	rm := Option{Candidate: Candidate{Kind: RemoveReplica, PID: 2, Site: 1, Net: -50}, FreeSite: 1, Frees: 100}
	mem := []Memory{{}, {Used: 95, Cap: 100}}
	if got := len(Choose([]Option{rm}, mem, History{}, 3)); got != 1 {
		t.Errorf("freeing option with negative net: %d chosen, want 1", got)
	}
	added := Executed{Candidate: Candidate{Kind: AddReplica, PID: 2, Site: 1, Upfront: 30}, At: now}
	hist.Last[2] = added
	if got := len(Choose([]Option{rm}, mem, hist, 3)); got != 0 {
		t.Errorf("freeing option undoing a recent replica: %d chosen, want 0", got)
	}
}

func TestChooseCapacity(t *testing.T) {
	mem := []Memory{{Used: 95, Cap: 100}, {Used: 50, Cap: 100}}
	free := func(pid partition.ID, k ChangeKind, net float64, bytes int64) Option {
		o := opt(pid, k, 0, net)
		o.FreeSite, o.Frees = 0, bytes
		return o
	}
	opts := []Option{
		free(1, ChangeTier, -100, 10),    // -10/byte
		free(2, ChangeCompress, -20, 10), // -2/byte: first
		free(3, RemoveReplica, -300, 20), // -15/byte
		opt(4, ChangeFormat, 0, 50),
	}
	// 95 → 85 → 75 (< 80): two freeing options, the best per byte first,
	// then the positive format change.
	plan := Choose(opts, mem, History{}, 10)
	if got := kindsOf(plan); !slices.Equal(got, []string{"compress@2", "tier@1", "format@4"}) {
		t.Errorf("plan = %v", got)
	}
	// An addition may not take a site to the pressure line.
	grow := opt(5, AddReplica, 1, 1000)
	for _, tc := range []struct {
		adds int64
		want int
	}{{39, 1}, {40, 0}, {80, 0}} {
		grow.Adds = tc.adds
		if got := len(Choose([]Option{grow}, mem, History{}, 10)); got != tc.want {
			t.Errorf("adding %d B to a site at 50/100: %d chosen, want %d", tc.adds, got, tc.want)
		}
	}
	// Freed memory makes room within the same plan.
	onto0 := opt(6, AddReplica, 0, 10)
	onto0.Adds = 8
	if got := kindsOf(Choose(append(opts, onto0), mem, History{}, 10)); !slices.Contains(got, "add-replica@6") {
		t.Errorf("plan %v: adding 8 B after freeing to 75/100 fits", got)
	}
}

// TestChooseIgnoresOrder: the pending set is a map, so the options reach
// Choose in any order; ties on net benefit must not depend on it.
func TestChooseIgnoresOrder(t *testing.T) {
	var opts []Option
	for pid := partition.ID(1); pid <= 6; pid++ {
		for k := ChangeFormat; k <= ChangeMaster; k++ {
			o := opt(pid, k, int(pid)%3, float64(100*(int(k)%3))) // many ties
			if k == RemoveReplica {
				o.FreeSite, o.Frees = 0, 10
			}
			if k == AddReplica {
				o.Adds = 5
			}
			opts = append(opts, o)
		}
	}
	mem := []Memory{{Used: 92, Cap: 100}, {Used: 10, Cap: 100}, {}}
	want := Choose(opts, mem, History{}, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		rng.Shuffle(len(opts), func(a, b int) { opts[a], opts[b] = opts[b], opts[a] })
		if got := Choose(opts, mem, History{}, 4); !slices.Equal(got, want) {
			t.Fatalf("shuffle %d: plan %v, want %v", i, kindsOf(got), kindsOf(want))
		}
	}
}

func TestGrows(t *testing.T) {
	v := baseView(100) // master at site 0
	v.Bytes = 6000
	v.Replicas = []ReplicaView{{Site: 1, Layout: storage.DefaultColumnLayout()}}
	disk, mem := storage.DefaultRowLayout(), storage.DefaultRowLayout()
	disk.Tier = storage.DiskTier
	for _, tc := range []struct {
		c    Candidate
		want int64
	}{
		{Candidate{Kind: AddReplica, Site: 2}, 6000},
		{Candidate{Kind: ChangeMaster, Site: 2}, 6000}, // no copy there yet
		{Candidate{Kind: ChangeMaster, Site: 1}, 0},    // the replica takes over
		{Candidate{Kind: ChangeTier, NewLayout: mem}, 6000},
		{Candidate{Kind: ChangeTier, NewLayout: disk}, 0},
		{Candidate{Kind: RemoveReplica, Site: 1}, 0},
		{Candidate{Kind: ChangeFormat, NewLayout: storage.DefaultColumnLayout()}, 0},
	} {
		if got := Grows(v, tc.c); got != tc.want {
			t.Errorf("%v to site %d: grows %d B, want %d", tc.c.Kind, tc.c.Site, got, tc.want)
		}
	}
}
