package plan

import (
	"fmt"
	"slices"

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
	Bindings []OpBinding
	// ReadPIDs are the partitions the transaction only reads and WritePIDs
	// those it writes: each sorted, each partition once, the two disjoint.
	ReadPIDs  []partition.ID
	WritePIDs []partition.ID
	// Coordinator is the site that runs the transaction: of the sites
	// mastering its writes, the one holding most of its pieces (the first
	// on a tie), so that the most reads and writes need no message. A
	// read-only transaction runs at its first read's copy.
	Coordinator simnet.SiteID
}

// PlanTxn binds every operation of a transaction to partition copies. A
// plan allocates a fixed handful of slices whatever its op count: the
// bindings, one arena for every op's pieces and one for their copies
// (each sized from len(t.Ops), growing only when a row is split
// vertically), and one for the sorted partition sets.
func (pl *Planner) PlanTxn(t *query.Txn) (*TxnPlan, error) {
	tp := &TxnPlan{Bindings: make([]OpBinding, 0, len(t.Ops))}
	pieces := make([]*metadata.PartitionMeta, 0, len(t.Ops))
	for _, op := range t.Ops {
		cols := op.Cols
		if op.Kind == query.OpInsert || op.Kind == query.OpDelete {
			cols = nil // all columns
		}
		base := len(pieces)
		if pieces = pl.Dir.AppendForRow(pieces, op.Table, op.Row, cols); len(pieces) == base {
			return nil, fmt.Errorf("plan: no partition for table %d row %d", op.Table, op.Row)
		}
		tp.Bindings = append(tp.Bindings, OpBinding{Op: op, Pieces: pieces[base:len(pieces):len(pieces)]})
	}
	n := 0
	for _, b := range tp.Bindings {
		n += len(b.Pieces)
	}
	copies := make([]metadata.Replica, n)
	pids := make([]partition.ID, 0, n)
	for i := range tp.Bindings {
		b := &tp.Bindings[i]
		b.Copies, copies = copies[:len(b.Pieces):len(b.Pieces)], copies[len(b.Pieces):]
		if b.Op.Kind != query.OpRead {
			for j, m := range b.Pieces {
				b.Copies[j] = m.Master()
				pids = append(pids, m.ID)
			}
		}
	}
	slices.Sort(pids)
	pids = slices.Compact(pids)
	tp.WritePIDs = pids[:len(pids):len(pids)]
	// Reads bind once the write set is known: a read of a written partition
	// goes to its master whatever the op order.
	reads := pids[len(pids):]
	for _, b := range tp.Bindings {
		if b.Op.Kind != query.OpRead {
			continue
		}
		for j, m := range b.Pieces {
			if _, written := slices.BinarySearch(tp.WritePIDs, m.ID); written {
				b.Copies[j] = m.Master()
			} else {
				b.Copies[j] = pl.choosePointCopy(m, len(b.Op.Cols))
				reads = append(reads, m.ID)
			}
		}
	}
	slices.Sort(reads)
	tp.ReadPIDs = slices.Compact(reads)
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

// identity and identityCols back PieceCols' value positions and insert
// columns for pieces within the first 64 columns, so those cases
// allocate nothing.
var identity, identityCols = func() (ix [64]int, cols [64]schema.ColID) {
	for i := range ix {
		ix[i], cols[i] = i, schema.ColID(i)
	}
	return ix, cols
}()

// PieceCols returns the columns of op relevant to one covering piece,
// paired with the value positions in op.Vals. Inserts return every
// partition-local column. The slices may alias op.Cols and a shared table:
// callers only read them.
func PieceCols(op query.Op, m *metadata.PartitionMeta) (cols []schema.ColID, valIdx []int) {
	if op.Kind == query.OpInsert {
		lo, hi := int(m.Bounds.ColStart), int(m.Bounds.ColEnd)
		if hi <= len(identity) {
			return identityCols[lo:hi:hi], identity[lo:hi:hi]
		}
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
