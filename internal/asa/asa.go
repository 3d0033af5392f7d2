// Package asa implements the decision core of Proteus' adaptive storage
// advisor (§5.3.2 and Appendix A of the paper): candidate storage-layout
// changes, their upfront costs U(S) composed from the cost functions of
// Table 2, their expected effects E(S) (+ ongoing effects C(S)) on
// predicted requests per Table 3 and Equation 1, and the net benefit
//
//	N(S) = λ·(E(S) + C(S)) − U(S).
//
// The package is pure decision math over a PartitionView snapshot, and
// Choose makes one planning pass's plan from the evaluated candidates; the
// cluster engine enqueues partitions, supplies views and executes the plan.
package asa

import (
	"time"

	"proteus/internal/cost"
	"proteus/internal/partition"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
)

// Flags enables or disables individual adaptive techniques — the knobs of
// the ablation study (§6.3.7).
type Flags struct {
	FormatChanges   bool
	TierChanges     bool
	Sorting         bool
	Compression     bool
	VerticalSplit   bool
	HorizontalSplit bool
	Merging         bool
	Replication     bool
	MasterChanges   bool
	DecisionReuse   bool
}

// AllFlags enables everything.
func AllFlags() Flags {
	return Flags{
		FormatChanges: true, TierChanges: true, Sorting: true,
		Compression: true, VerticalSplit: true, HorizontalSplit: true,
		Merging: true, Replication: true, MasterChanges: true,
		DecisionReuse: true,
	}
}

// ChangeKind enumerates the storage layout changes of §4.4.
type ChangeKind uint8

// Change kinds.
const (
	ChangeFormat ChangeKind = iota
	ChangeTier
	ChangeSort
	ChangeCompress
	SplitHorizontal
	SplitVertical
	MergeWith
	AddReplica
	RemoveReplica
	ChangeMaster
)

// String names the change kind.
func (k ChangeKind) String() string {
	names := [...]string{"format", "tier", "sort", "compress", "split-h",
		"split-v", "merge", "add-replica", "rm-replica", "master"}
	if int(k) < len(names) {
		return names[k]
	}
	return "?"
}

// Candidate is one proposed change to one partition.
type Candidate struct {
	Kind ChangeKind
	PID  partition.ID
	// Site is the copy the change applies to (layout changes), the target
	// site (AddReplica, ChangeMaster), or the replica site (RemoveReplica).
	Site simnet.SiteID
	// NewLayout is the resulting layout for layout changes and the layout
	// of a new replica.
	NewLayout storage.Layout
	// SplitRow / SplitCol locate split points.
	SplitRow schema.RowID
	SplitCol schema.ColID
	// Other identifies the merge partner.
	Other partition.ID
	// Net is the net benefit and Upfront the upfront cost U(S) in
	// microseconds (filled by Evaluate).
	Net, Upfront float64
}

// AccessRates describes a partition's (recent or predicted) load for the
// evaluation horizon: expected operation counts and arrival likelihoods.
type AccessRates struct {
	// Updates, PointReads, Scans are expected counts over the horizon.
	Updates    float64
	PointReads float64
	Scans      float64
	// Prob and Delay weight per Equation 1: the likelihood requests
	// arrive and the normalized time-to-arrival (buckets).
	Prob  float64
	Delay float64
}

// Weight is the Equation 1 discount Pr(T)/(Δ(T)+1).
func (r AccessRates) Weight() float64 {
	if r.Prob <= 0 {
		return 0
	}
	return r.Prob / (r.Delay + 1)
}

// PartitionView is a decision-time snapshot of one partition.
type PartitionView struct {
	PID    partition.ID
	Bounds partition.Bounds

	Rows     int
	RowBytes int   // average full-row bytes
	Bytes    int64 // the master copy's footprint

	Master   ReplicaView
	Replicas []ReplicaView

	// Rates over the upcoming horizon (recent or predicted).
	Rates AccessRates
	// Ongoing approximates requests currently executing against the
	// partition (C(S) of the net-benefit formula); Prob=1, Delay=0.
	Ongoing AccessRates

	// ScanSelectivity is the average selectivity of scans over this
	// partition (from zone maps and observed outputs).
	ScanSelectivity float64
	// AvgUpdateCols is the average number of columns per update.
	AvgUpdateCols int
	// Contention is the lock-wait signal (waiters, decayed recent wait).
	ContentionWaiters int
	ContentionWait    time.Duration

	// WriteHotCols/ReadHotCols mark, per local column, whether writes or
	// reads dominate (drives row splitting, §2.2).
	WriteHotCols []bool
	ReadHotCols  []bool

	// CoAccessSite is the site most co-accessed partitions are mastered
	// at (drives master changes / co-location), -1 if unknown.
	CoAccessSite simnet.SiteID
}

// ReplicaView is one copy's placement and layout.
type ReplicaView struct {
	Site   simnet.SiteID
	Layout storage.Layout
}

// Evaluator computes net benefits using the learned cost model.
type Evaluator struct {
	Model *cost.Model
	// Lambda scales the expected benefit against the upfront cost
	// (the λ of §5.3.2; > 0).
	Lambda float64
}

// microseconds of a model prediction.
func (ev *Evaluator) us(op cost.Op, v cost.Variant, l storage.Layout, f cost.Features) float64 {
	return float64(ev.Model.Predict(op, v, l, f)) / float64(time.Microsecond)
}

// opLatency estimates the per-operation latencies under a layout.
func (ev *Evaluator) opLatency(view PartitionView, l storage.Layout) (upd, point, scan float64) {
	nCols := view.Bounds.NumCols()
	projBytes := view.RowBytes / max(nCols, 1) * max(nCols/3, 1)
	upd = ev.us(cost.OpWrite, cost.VariantDefault, l, cost.WriteFeatures(view.AvgUpdateCols, view.RowBytes))
	point = ev.us(cost.OpPointRead, cost.VariantDefault, l, cost.PointReadFeatures(nCols, view.RowBytes))
	variant := cost.ScanSeq
	if l.SortBy != storage.NoSort {
		variant = cost.ScanSorted
	}
	scan = ev.us(cost.OpScan, variant, l, cost.ScanFeatures(view.Rows, view.RowBytes, projBytes, view.ScanSelectivity))
	return upd, point, scan
}

// pairUs predicts one op under two layouts from a consistent source
// (learned vs bootstrap, never mixed — their calibrations differ).
func (ev *Evaluator) pairUs(op cost.Op, v cost.Variant, a, b storage.Layout, f cost.Features) (float64, float64) {
	da, db := ev.Model.PredictPair(op, v, a, b, f)
	return float64(da) / float64(time.Microsecond), float64(db) / float64(time.Microsecond)
}

// opLatencyPair estimates per-op latencies under two layouts consistently.
func (ev *Evaluator) opLatencyPair(view PartitionView, cur, next storage.Layout) (cu, cp, cs, nu, np, ns float64) {
	nCols := view.Bounds.NumCols()
	projBytes := view.RowBytes / max(nCols, 1) * max(nCols/3, 1)
	cu, nu = ev.pairUs(cost.OpWrite, cost.VariantDefault, cur, next, cost.WriteFeatures(view.AvgUpdateCols, view.RowBytes))
	cp, np = ev.pairUs(cost.OpPointRead, cost.VariantDefault, cur, next, cost.PointReadFeatures(nCols, view.RowBytes))
	cv, nv := cost.ScanSeq, cost.ScanSeq
	if cur.SortBy != storage.NoSort {
		cv = cost.ScanSorted
	}
	if next.SortBy != storage.NoSort {
		nv = cost.ScanSorted
	}
	sf := cost.ScanFeatures(view.Rows, view.RowBytes, projBytes, view.ScanSelectivity)
	if cv == nv {
		cs, ns = ev.pairUs(cost.OpScan, cv, cur, next, sf)
	} else {
		// Different variants: only the bootstrap is mutually calibrated.
		cs = float64(ev.Model.PredictBootstrap(cost.OpScan, cv, cur, sf)) / float64(time.Microsecond)
		ns = float64(ev.Model.PredictBootstrap(cost.OpScan, nv, next, sf)) / float64(time.Microsecond)
	}
	return
}

// expectedEffect computes E(S)+C(S) for a change that swaps the master
// copy's layout from cur to next, optionally scaling the per-op deltas.
func (ev *Evaluator) expectedEffect(view PartitionView, cur, next storage.Layout) float64 {
	cu, cp, cs, nu, np, ns := ev.opLatencyPair(view, cur, next)
	dUpd, dPoint, dScan := cu-nu, cp-np, cs-ns
	e := view.Rates.Weight() * (view.Rates.Updates*dUpd + view.Rates.PointReads*dPoint + view.Rates.Scans*dScan)
	c := view.Ongoing.Weight() * (view.Ongoing.Updates*dUpd + view.Ongoing.PointReads*dPoint + view.Ongoing.Scans*dScan)
	return e + c
}

// upfrontChange is U(S) for format/tier/sort/compress changes (Table 2):
// network request + lock + scan of the old layout + bulk load of the new
// (+ sort when enabling a sort order).
func (ev *Evaluator) upfrontChange(view PartitionView, cur, next storage.Layout, withSort bool) float64 {
	u := ev.us(cost.OpNetwork, cost.VariantDefault, storage.Layout{}, cost.NetworkFeatures(0, 0, 256, 64))
	u += ev.us(cost.OpLock, cost.VariantDefault, storage.Layout{}, cost.LockFeatures(view.ContentionWaiters, view.ContentionWait))
	u += ev.us(cost.OpScan, cost.ScanSeq, cur, cost.ScanFeatures(view.Rows, view.RowBytes, view.RowBytes, 1))
	u += ev.us(cost.OpBulkLoad, cost.VariantDefault, next, cost.BulkLoadFeatures(view.Rows, view.RowBytes))
	if withSort {
		u += ev.us(cost.OpSort, cost.VariantDefault, next, cost.SortFeatures(view.Rows, view.RowBytes))
	}
	return u
}

// Evaluate fills in the candidate's upfront cost U and net benefit
// N(S) = λ(E+C) − U.
func (ev *Evaluator) Evaluate(view PartitionView, c Candidate) Candidate {
	lambda := ev.Lambda
	if lambda <= 0 {
		lambda = 1
	}
	var e, u float64
	cur := view.Master.Layout
	switch c.Kind {
	case ChangeFormat, ChangeTier, ChangeSort, ChangeCompress:
		e = ev.expectedEffect(view, cur, c.NewLayout)
		withSort := c.NewLayout.SortBy != storage.NoSort && cur.SortBy == storage.NoSort
		u = ev.upfrontChange(view, cur, c.NewLayout, withSort)

	case SplitVertical, SplitHorizontal:
		// Splitting reduces contention within (vertical) or across
		// (horizontal) rows: model the lock wait dropping by half, and a
		// stitch/coordination penalty on scans (Table 3's partitioning
		// row touches every cost function).
		lockNow := ev.us(cost.OpLock, cost.VariantDefault, storage.Layout{},
			cost.LockFeatures(view.ContentionWaiters, view.ContentionWait))
		lockAfter := ev.us(cost.OpLock, cost.VariantDefault, storage.Layout{},
			cost.LockFeatures(view.ContentionWaiters/2, view.ContentionWait/2))
		dLock := lockNow - lockAfter
		_, _, scanCost := ev.opLatency(view, cur)
		scanPenalty := 0.1 * scanCost
		e = view.Rates.Weight()*(view.Rates.Updates*dLock-view.Rates.Scans*scanPenalty) +
			view.Ongoing.Weight()*(view.Ongoing.Updates*dLock-view.Ongoing.Scans*scanPenalty)
		// Upfront: cheap pointer-reassignment combinations vs generic
		// reload (§4.4 / Table 2).
		cheap := (c.Kind == SplitHorizontal && cur.Format == storage.RowFormat) ||
			(c.Kind == SplitVertical && cur.Format == storage.ColumnFormat)
		u = ev.us(cost.OpNetwork, cost.VariantDefault, storage.Layout{}, cost.NetworkFeatures(0, 0, 256, 64)) +
			ev.us(cost.OpLock, cost.VariantDefault, storage.Layout{}, cost.LockFeatures(view.ContentionWaiters, view.ContentionWait)) +
			ev.us(cost.OpCommit, cost.VariantDefault, storage.Layout{}, cost.CommitFeatures(0, 2, 1))
		if !cheap {
			u += ev.us(cost.OpScan, cost.ScanSeq, cur, cost.ScanFeatures(view.Rows, view.RowBytes, view.RowBytes, 1)) +
				ev.us(cost.OpBulkLoad, cost.VariantDefault, cur, cost.BulkLoadFeatures(view.Rows, view.RowBytes))
		}

	case MergeWith:
		// Merging cold partitions reduces per-partition metadata and scan
		// fan-out; a small fixed benefit per scan, charged a generic
		// partition change upfront.
		_, _, scanCost := ev.opLatency(view, cur)
		e = view.Rates.Weight() * view.Rates.Scans * 0.05 * scanCost
		u = ev.upfrontChange(view, cur, cur, false) +
			ev.us(cost.OpCommit, cost.VariantDefault, storage.Layout{}, cost.CommitFeatures(0, 2, 1))

	case AddReplica:
		// Scans route to the replica layout; updates pay propagation and
		// readers of the replica pay freshness waits (§4.2).
		_, _, scanCur, updNew, _, scanNew := ev.opLatencyPair(view, cur, c.NewLayout)
		dScan := scanCur - scanNew
		maint := updNew // each update applied once more, at the replica
		wait := ev.us(cost.OpWaitUpdates, cost.VariantDefault, storage.Layout{}, cost.WaitFeatures(1))
		e = view.Rates.Weight() * (view.Rates.Scans*(dScan-wait) - view.Rates.Updates*maint)
		if dScan > 0 {
			// Only a scan-superior replica attracts remote readers, saving
			// the transfer of partial results toward the coordinator; scale
			// by half as only a share of accesses were remote.
			netSave := ev.us(cost.OpNetwork, cost.VariantDefault, storage.Layout{},
				cost.NetworkFeatures(0, 0, view.Rows*view.RowBytes/max(view.Bounds.NumCols(), 1), 0))
			e += 0.5 * view.Rates.Weight() * view.Rates.Scans * netSave
		}
		// Upfront per Table 2: snapshot scan + bulk load + network + locks
		// at source and destination + waiting + commit.
		u = ev.upfrontChange(view, cur, c.NewLayout, c.NewLayout.SortBy != storage.NoSort)
		u += ev.us(cost.OpLock, cost.VariantDefault, storage.Layout{}, cost.LockFeatures(0, 0)) +
			ev.us(cost.OpWaitUpdates, cost.VariantDefault, storage.Layout{}, cost.WaitFeatures(1)) +
			ev.us(cost.OpCommit, cost.VariantDefault, storage.Layout{}, cost.CommitFeatures(0, 1, 2))

	case RemoveReplica:
		// Saves update propagation; loses the replica's scan advantage.
		var rep ReplicaView
		for _, r := range view.Replicas {
			if r.Site == c.Site {
				rep = r
			}
		}
		_, _, scanCur, updRep, _, scanRep := ev.opLatencyPair(view, cur, rep.Layout)
		e = view.Rates.Weight() * (view.Rates.Updates*updRep - view.Rates.Scans*max(0, scanCur-scanRep))
		u = ev.us(cost.OpNetwork, cost.VariantDefault, storage.Layout{}, cost.NetworkFeatures(0, 0, 128, 32))

	case ChangeMaster:
		// Mastering at the co-access site turns distributed commits into
		// local ones (Table 2's change-master row).
		commitRemote := ev.us(cost.OpCommit, cost.VariantDefault, storage.Layout{}, cost.CommitFeatures(1, 2, 2))
		commitLocal := ev.us(cost.OpCommit, cost.VariantDefault, storage.Layout{}, cost.CommitFeatures(1, 2, 1))
		netRT := ev.us(cost.OpNetwork, cost.VariantDefault, storage.Layout{}, cost.NetworkFeatures(0, 0, 128, 64))
		e = view.Rates.Weight() * view.Rates.Updates * (commitRemote - commitLocal + netRT)
		u = 2*ev.us(cost.OpNetwork, cost.VariantDefault, storage.Layout{}, cost.NetworkFeatures(0, 0, 256, 64)) +
			2*ev.us(cost.OpLock, cost.VariantDefault, storage.Layout{}, cost.LockFeatures(view.ContentionWaiters, view.ContentionWait)) +
			ev.us(cost.OpWaitUpdates, cost.VariantDefault, storage.Layout{}, cost.WaitFeatures(4)) +
			ev.us(cost.OpCommit, cost.VariantDefault, storage.Layout{}, cost.CommitFeatures(0, 1, 2))
	}
	c.Net, c.Upfront = lambda*e-u, u
	return c
}
