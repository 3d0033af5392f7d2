package plan

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"proteus/internal/cost"
	"proteus/internal/exec"
	"proteus/internal/forecast"
	"proteus/internal/metadata"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
)

// PNode is a node of a physical execution plan (Figure 7b).
type PNode interface{ isPNode() }

// ScanPart binds one partition to a chosen copy for scanning.
type ScanPart struct {
	Meta *metadata.PartitionMeta
	Copy metadata.Replica
	// Cols are the table-global columns this piece contributes.
	Cols []schema.ColID
}

// RowSegment is one horizontal slice of a table scan: the vertical pieces
// tiling the needed columns for rows [Lo, Hi).
type RowSegment struct {
	Lo, Hi schema.RowID
	Pieces []ScanPart
}

// PScan reads Cols of Table where Pred holds, assembled from the bound
// partition copies segment by segment.
type PScan struct {
	Table    schema.TableID
	Cols     []schema.ColID // output columns, in order
	Pred     storage.Pred
	Segments []RowSegment
	EstRows  int
}

func (*PScan) isPNode() {}

// PJoin equi-joins two subplans. Where each side is built or probed, and
// at which sites, is the executor's decision, not the plan's.
type PJoin struct {
	Left, Right PNode
	LeftKey     int // position in left output
	RightKey    int // position in right output
	EstRows     int
}

func (*PJoin) isPNode() {}

// PAgg aggregates a subplan. Over a scan or a join every scanning site
// accumulates Aggs itself, and the coordinator merges the sites'
// accumulators (exec.Aggregator.MergeFrom), so no aggregate is rewritten
// for two-phase execution.
type PAgg struct {
	Child   PNode
	GroupBy []int
	Aggs    []exec.AggSpec
}

func (*PAgg) isPNode() {}

// OutputWidth reports the number of columns a plan node produces.
func OutputWidth(n PNode) int {
	switch v := n.(type) {
	case *PScan:
		return len(v.Cols)
	case *PJoin:
		return OutputWidth(v.Left) + OutputWidth(v.Right)
	case *PAgg:
		return len(v.GroupBy) + len(v.Aggs)
	}
	return 0
}

// Planner builds physical plans from logical query trees (§5.3.1).
type Planner struct {
	Dir       *metadata.Directory
	Model     *cost.Model
	Decisions *DecisionCache
	Plans     *PlanCache
	Epoch     *Epoch
	// MaxRow bounds table row ids (for full-table partition lookups).
	MaxRow schema.RowID
}

// PlanQuery converts a logical query into a physical plan, reusing a
// cached plan when the layout epoch allows.
func (pl *Planner) PlanQuery(q *query.Query) (PNode, error) {
	fp := fingerprint(q.Root)
	epoch := pl.Epoch.Current()
	if cached, ok := pl.Plans.Get(fp, epoch); ok {
		if node, ok := cached.(PNode); ok {
			return node, nil
		}
	}
	node, err := pl.planNode(q.Root)
	if err != nil {
		return nil, err
	}
	pl.Plans.Put(fp, epoch, node)
	return node, nil
}

func (pl *Planner) planNode(n query.Node) (PNode, error) {
	switch v := n.(type) {
	case *query.ScanNode:
		return pl.planScan(v)
	case *query.JoinNode:
		return pl.planJoin(v)
	case *query.AggNode:
		return pl.planAgg(v)
	}
	return nil, fmt.Errorf("plan: unknown node %T", n)
}

// neededCols unions projection and predicate columns.
func neededCols(cols []schema.ColID, pred storage.Pred) []schema.ColID {
	seen := map[schema.ColID]bool{}
	var out []schema.ColID
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, p := range pred {
		if !seen[p.Col] {
			seen[p.Col] = true
			out = append(out, p.Col)
		}
	}
	return out
}

func (pl *Planner) planScan(s *query.ScanNode) (PNode, error) {
	need := neededCols(s.Cols, s.Pred)
	parts := pl.Dir.PartitionsFor(s.Table, 0, pl.MaxRow, need)
	if len(parts) == 0 {
		return nil, fmt.Errorf("plan: no partitions for table %d", s.Table)
	}
	// Compute row segments from the union of partition boundaries.
	cutSet := map[schema.RowID]bool{}
	for _, m := range parts {
		cutSet[m.Bounds.RowStart] = true
		cutSet[m.Bounds.RowEnd] = true
	}
	cuts := make([]schema.RowID, 0, len(cutSet))
	for c := range cutSet {
		cuts = append(cuts, c)
	}
	slices.Sort(cuts)

	ps := &PScan{Table: s.Table, Cols: s.Cols, Pred: s.Pred}
	est := 0
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		seg := RowSegment{Lo: lo, Hi: hi}
		// A segment's row survives only if every vertical piece's share of
		// the predicate admits it: estimate it by its most selective piece.
		segEst := -1
		for _, m := range parts {
			if !m.Bounds.OverlapsRows(lo, hi) {
				continue
			}
			var pieceCols []schema.ColID
			for _, c := range need {
				if m.Bounds.ContainsCol(c) {
					pieceCols = append(pieceCols, c)
				}
			}
			if len(need) == 0 && len(seg.Pieces) == 0 {
				// Projection-free scans (COUNT(*)) still visit each row
				// once: read one column of one vertical piece per segment.
				pieceCols = []schema.ColID{m.Bounds.ColStart}
			}
			if len(pieceCols) == 0 {
				continue
			}
			copyChoice := pl.chooseCopy(m, pieceCols, s.Pred)
			seg.Pieces = append(seg.Pieces, ScanPart{Meta: m, Copy: copyChoice, Cols: pieceCols})
			if m.ZoneMap != nil {
				pe := int(float64(m.ZoneMap.Rows()) * m.ZoneMap.EstimateSelectivity(globalToLocalPred(m, s.Pred)))
				if segEst < 0 || pe < segEst {
					segEst = pe
				}
			}
		}
		if segEst > 0 {
			est += segEst
		}
		if len(seg.Pieces) > 0 {
			ps.Segments = append(ps.Segments, seg)
		}
	}
	ps.EstRows = est
	return ps, nil
}

// globalToLocalPred keeps only the conjuncts a partition covers, translated
// to its local columns (for zone-map selectivity).
func globalToLocalPred(m *metadata.PartitionMeta, pred storage.Pred) storage.Pred {
	var out storage.Pred
	for _, c := range pred {
		if m.Bounds.ContainsCol(c.Col) {
			out = append(out, storage.Cond{Col: m.Bounds.LocalCol(c.Col), Op: c.Op, Val: c.Val})
		}
	}
	return out
}

// scanOrigin is the site a scan's shipping is priced toward. A query's
// coordinator is picked after planning, from the copies the plan binds
// (the cluster's pickCoordinator), so planning cannot price from it; every
// scan prices from site 0.
const scanOrigin simnet.SiteID = 0

// chooseCopy picks the replica to scan: minimal predicted scan cost plus
// shipping the result toward scanOrigin. The decision is cached by
// bucketed cardinality and the copy layouts (§5.3.3).
func (pl *Planner) chooseCopy(m *metadata.PartitionMeta, cols []schema.ColID, pred storage.Pred) metadata.Replica {
	copies := m.AllCopies()
	if len(copies) == 1 {
		return copies[0]
	}
	rows := 0
	if m.ZoneMap != nil {
		rows = m.ZoneMap.Rows()
	}
	var buf [128]byte
	key := appendBuckets(appendCopiesKey(buf[:0], "copy", copies), float64(rows), float64(len(cols)))
	if d, ok := pl.Decisions.lookupBytes(key); ok {
		if r, ok := d.(metadata.Replica); ok && m.HasCopyAt(r.Site) {
			return r
		}
	}
	rowBytes := pl.Dir.AvgRowBytes(m.Bounds.Table, nil)
	outBytes := pl.Dir.AvgRowBytes(m.Bounds.Table, cols)
	sel := 1.0
	if m.ZoneMap != nil {
		sel = m.ZoneMap.EstimateSelectivity(globalToLocalPred(m, pred))
	}
	// Replicas of update-hot partitions must catch up before a consistent
	// read (§4.2): charge the expected freshness wait.
	updateRate := m.Tracker.RecentRate(forecast.Update, 8)
	master := m.Master()
	best := copies[0]
	bestCost := float64(1 << 62)
	for _, c := range copies {
		variant := cost.ScanSeq
		if c.Layout.SortBy != storage.NoSort {
			variant = cost.ScanSorted
		}
		scanCost := pl.Model.Predict(cost.OpScan, variant, c.Layout, cost.ScanFeatures(rows, rowBytes, outBytes, sel))
		shipBytes := int(float64(rows) * sel * float64(outBytes))
		netCost := pl.Model.Predict(cost.OpNetwork, cost.VariantDefault, storage.Layout{},
			cost.NetworkFeatures(0, 0, shipBytes, 0))
		total := float64(scanCost)
		if c.Site != scanOrigin {
			total += float64(netCost)
		}
		if c != master && updateRate > 0 {
			wait := pl.Model.Predict(cost.OpWaitUpdates, cost.VariantDefault, storage.Layout{},
				cost.WaitFeatures(int(updateRate)+1))
			total += float64(wait)
		}
		if total < bestCost {
			bestCost, best = total, c
		}
	}
	pl.Decisions.Store(string(key), best)
	return best
}

func (pl *Planner) planJoin(j *query.JoinNode) (PNode, error) {
	left, err := pl.planNode(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := pl.planNode(j.Right)
	if err != nil {
		return nil, err
	}
	// FK join estimate: one match per left row.
	return &PJoin{Left: left, Right: right, LeftKey: j.LeftKeyCol, RightKey: j.RightKeyCol, EstRows: estRows(left)}, nil
}

func (pl *Planner) planAgg(a *query.AggNode) (PNode, error) {
	child, err := pl.planNode(a.Child)
	if err != nil {
		return nil, err
	}
	return &PAgg{Child: child, GroupBy: a.GroupBy, Aggs: a.Aggs}, nil
}

func estRows(n PNode) int {
	switch v := n.(type) {
	case *PScan:
		return v.EstRows
	case *PJoin:
		return v.EstRows
	case *PAgg:
		return 1
	}
	return 0
}

// fingerprint canonically renders a logical tree for plan-cache keying.
// The cached physical plan carries the query's predicates and aggregate
// inputs, so the key must hold everything that distinguishes them: every
// conjunct's column, operator and constant (kind included — 1 and 1.0 plan
// alike but need not scan alike), and every aggregate's input position.
func fingerprint(n query.Node) string {
	var buf [256]byte
	return string(appendFingerprint(buf[:0], n))
}

func appendFingerprint(b []byte, n query.Node) []byte {
	switch v := n.(type) {
	case *query.ScanNode:
		b = strconv.AppendInt(append(b, "Scan(t"...), int64(v.Table), 10)
		b = appendInts(append(b, " cols="...), v.Cols)
		for _, c := range v.Pred {
			// Raw payload fields, not Value.String: that rounds timestamps
			// to the second.
			b = strconv.AppendInt(append(b, " c"...), int64(c.Col), 10)
			b = strconv.AppendUint(append(b, c.Op.String()...), uint64(c.Val.K), 10)
			b = strconv.AppendInt(append(b, ':'), c.Val.I, 10)
			b = strconv.AppendUint(append(b, ':'), math.Float64bits(c.Val.F), 16)
			b = strconv.AppendQuote(append(b, ':'), c.Val.S)
		}
		b = append(b, ')')
	case *query.JoinNode:
		b = appendFingerprint(append(b, "Join("...), v.Left)
		b = strconv.AppendInt(append(b, " ["...), int64(v.LeftKeyCol), 10)
		b = strconv.AppendInt(append(b, '='), int64(v.RightKeyCol), 10)
		b = appendFingerprint(append(b, "] "...), v.Right)
		b = append(b, ')')
	case *query.AggNode:
		b = appendFingerprint(append(b, "Agg("...), v.Child)
		b = appendInts(append(b, " by="...), v.GroupBy)
		for _, a := range v.Aggs {
			b = append(append(append(b, ' '), a.Func.String()...), '(')
			b = append(strconv.AppendInt(b, int64(a.Col), 10), ')')
		}
		b = append(b, ')')
	default:
		b = append(b, n.String()...)
	}
	return b
}

// appendInts appends xs as fmt's %v prints them: [1 2 3].
func appendInts[T ~int | ~int32](b []byte, xs []T) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}
