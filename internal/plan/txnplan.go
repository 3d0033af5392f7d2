package plan

import (
	"fmt"
	"sort"

	"proteus/internal/cost"
	"proteus/internal/forecast"
	"proteus/internal/metadata"
	"proteus/internal/partition"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
)

// OpBinding binds one OLTP operation to the partition copies it touches.
// Writes always bind masters, and so do reads of partitions the
// transaction also writes: the coordinator must contact that master for
// the write anyway, the read rides the same message, and a master never
// waits for replication to catch up. Other reads bind the cheapest copy.
type OpBinding struct {
	Op query.Op
	// Pieces are the partitions covering the op's row and columns (more
	// than one when the row range is vertically partitioned).
	Pieces []*metadata.PartitionMeta
	// Copies holds, per piece, the replica chosen for reads (for writes it
	// is the master).
	Copies []metadata.Replica
}

// TxnPlan is the physical plan of an OLTP transaction.
type TxnPlan struct {
	Bindings  []OpBinding
	ReadPIDs  []partition.ID
	WritePIDs []partition.ID
	// Coordinator is the site that runs the transaction: of the sites
	// mastering its writes, the one holding most of its pieces (the first
	// on a tie), so that the most reads and writes need no message. A
	// read-only transaction runs at its first read's copy.
	Coordinator simnet.SiteID
}

// PlanTxn binds every operation of a transaction to partition copies.
func (pl *Planner) PlanTxn(t *query.Txn) (*TxnPlan, error) {
	tp := &TxnPlan{}
	readSet := map[partition.ID]bool{}
	writeSet := map[partition.ID]bool{}

	tp.Bindings = make([]OpBinding, 0, len(t.Ops))
	for _, op := range t.Ops {
		cols := op.Cols
		if op.Kind == query.OpInsert || op.Kind == query.OpDelete {
			cols = nil // all columns
		}
		pieces := pl.Dir.PartitionForRow(op.Table, op.Row, cols)
		if len(pieces) == 0 {
			return nil, fmt.Errorf("plan: no partition for table %d row %d", op.Table, op.Row)
		}
		b := OpBinding{Op: op, Pieces: pieces, Copies: make([]metadata.Replica, 0, len(pieces))}
		if op.Kind != query.OpRead {
			for _, m := range pieces {
				b.Copies = append(b.Copies, m.Master())
				writeSet[m.ID] = true
			}
		}
		tp.Bindings = append(tp.Bindings, b)
	}
	// Reads bind once the write set is known: a read of a written partition
	// goes to its master whatever the op order.
	for i := range tp.Bindings {
		b := &tp.Bindings[i]
		if b.Op.Kind != query.OpRead {
			continue
		}
		for _, m := range b.Pieces {
			readSet[m.ID] = true
			if writeSet[m.ID] {
				b.Copies = append(b.Copies, m.Master())
			} else {
				b.Copies = append(b.Copies, pl.choosePointCopy(m, len(b.Op.Cols)))
			}
		}
	}
	for id := range readSet {
		if !writeSet[id] {
			tp.ReadPIDs = append(tp.ReadPIDs, id)
		}
	}
	for id := range writeSet {
		tp.WritePIDs = append(tp.WritePIDs, id)
	}
	sort.Slice(tp.ReadPIDs, func(i, j int) bool { return tp.ReadPIDs[i] < tp.ReadPIDs[j] })
	sort.Slice(tp.WritePIDs, func(i, j int) bool { return tp.WritePIDs[i] < tp.WritePIDs[j] })
	if len(tp.Bindings) > 0 {
		tp.Coordinator = tp.Bindings[0].Copies[0].Site
	}
	most := -1
	for _, b := range tp.Bindings {
		if b.Op.Kind == query.OpRead {
			continue
		}
		for _, c := range b.Copies {
			if n := tp.piecesAt(c.Site); n > most {
				tp.Coordinator, most = c.Site, n
			}
		}
	}
	return tp, nil
}

// piecesAt counts the op pieces bound to a copy at site.
func (tp *TxnPlan) piecesAt(site simnet.SiteID) (n int) {
	for _, b := range tp.Bindings {
		for _, c := range b.Copies {
			if c.Site == site {
				n++
			}
		}
	}
	return n
}

// choosePointCopy picks the cheapest copy for a point read, preferring the
// coordinator's local copy, with the decision cached by layout set.
func (pl *Planner) choosePointCopy(m *metadata.PartitionMeta, ncols int) metadata.Replica {
	copies := m.AllCopies()
	if len(copies) == 1 {
		return copies[0]
	}
	var buf [128]byte
	key := appendBuckets(appendCopiesKey(buf[:0], "pointcopy", copies), float64(ncols))
	if d, ok := pl.Decisions.lookupBytes(key); ok {
		if r, ok := d.(metadata.Replica); ok && m.HasCopyAt(r.Site) {
			return r
		}
	}
	rowBytes := pl.Dir.AvgRowBytes(m.Bounds.Table, nil)
	updateRate := m.Tracker.RecentRate(forecast.Update, 8)
	master := m.Master()
	best := copies[0]
	bestCost := float64(1 << 62)
	for _, c := range copies {
		read := pl.Model.Predict(cost.OpPointRead, cost.VariantDefault, c.Layout, cost.PointReadFeatures(ncols, rowBytes))
		total := float64(read)
		if c.Site != pl.Coordinator {
			net := pl.Model.Predict(cost.OpNetwork, cost.VariantDefault, storage.Layout{}, cost.NetworkFeatures(0, 0, rowBytes, rowBytes))
			total += float64(net)
		}
		if c != master && updateRate > 0 {
			// Replicas of update-hot partitions must catch up before a
			// consistent read (§4.2): charge the expected freshness wait.
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

// identity backs PieceCols' value positions for a piece that holds every
// column of its op, so the unsplit case allocates nothing.
var identity = func() (ix [64]int) {
	for i := range ix {
		ix[i] = i
	}
	return ix
}()

// PieceCols returns the columns of op relevant to one covering piece,
// paired with the value positions in op.Vals. Inserts return every
// partition-local column. The slices may alias op.Cols and a shared table:
// callers only read them.
func PieceCols(op query.Op, m *metadata.PartitionMeta) (cols []schema.ColID, valIdx []int) {
	if op.Kind == query.OpInsert {
		for c := m.Bounds.ColStart; c < m.Bounds.ColEnd; c++ {
			cols = append(cols, c)
			valIdx = append(valIdx, int(c))
		}
		return cols, valIdx
	}
	all := len(op.Cols) <= len(identity)
	for _, c := range op.Cols {
		all = all && m.Bounds.ContainsCol(c)
	}
	if all {
		return op.Cols, identity[:len(op.Cols):len(op.Cols)]
	}
	for i, c := range op.Cols {
		if m.Bounds.ContainsCol(c) {
			cols = append(cols, c)
			valIdx = append(valIdx, i)
		}
	}
	return cols, valIdx
}
