package plan

import (
	"fmt"
	"slices"
	"strconv"

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
// waits for replication to catch up. Other reads bind the copy cheapest
// to reach from the transaction's coordinator.
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
	// Coordinator is the site that runs the transaction, settled before
	// any unwritten read binds: of the sites mastering its writes, the one
	// holding most of its writes and reads of written partitions (the first
	// written on a tie), so that as many as possible need no message. A
	// read-only transaction runs at its first read's master. Every other
	// read is then priced from here, so it binds a copy at this site when
	// one is as cheap as any.
	Coordinator simnet.SiteID
}

// PlanTxn binds every operation of a transaction to partition copies, in
// three steps: writes, and reads of written partitions, bind masters; the
// coordinator settles from those masters; then every other read binds the
// copy cheapest to reach from the coordinator. A plan allocates a fixed
// handful of slices whatever its op count: the bindings, one arena for
// every op's pieces and one for their copies (each sized from len(t.Ops),
// growing only when a row is split vertically), and one for the sorted
// partition sets.
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
	// The pieces bound at each site, counted as they bind. Writes bind
	// first, so the sites stand in the order the writes first reach them.
	var buf [4]siteCount
	counts := buf[:0]
	for i := range tp.Bindings {
		b := &tp.Bindings[i]
		b.Copies, copies = copies[:len(b.Pieces):len(b.Pieces)], copies[len(b.Pieces):]
		if b.Op.Kind != query.OpRead {
			for j, m := range b.Pieces {
				b.Copies[j] = m.Master()
				pids = append(pids, m.ID)
				counts = tally(counts, b.Copies[j].Site)
			}
		}
	}
	slices.Sort(pids)
	pids = slices.Compact(pids)
	tp.WritePIDs = pids[:len(pids):len(pids)]
	// A read of a written partition goes to its master whatever the op
	// order: the coordinator contacts that master for the write anyway.
	for _, b := range tp.Bindings {
		if b.Op.Kind != query.OpRead {
			continue
		}
		for j, m := range b.Pieces {
			if _, written := slices.BinarySearch(tp.WritePIDs, m.ID); written {
				b.Copies[j] = m.Master()
				counts = tally(counts, b.Copies[j].Site)
			}
		}
	}
	if len(counts) > 0 {
		most := counts[0]
		for _, c := range counts[1:] {
			if c.n > most.n {
				most = c
			}
		}
		tp.Coordinator = most.site
	} else if len(tp.Bindings) > 0 {
		tp.Coordinator = tp.Bindings[0].Pieces[0].Master().Site
	}
	// Every other read binds the copy cheapest to reach from there.
	reads := pids[len(pids):]
	for _, b := range tp.Bindings {
		if b.Op.Kind != query.OpRead {
			continue
		}
		for j, m := range b.Pieces {
			if _, written := slices.BinarySearch(tp.WritePIDs, m.ID); !written {
				b.Copies[j] = pl.choosePointCopy(m, len(b.Op.Cols), tp.Coordinator)
				reads = append(reads, m.ID)
			}
		}
	}
	slices.Sort(reads)
	tp.ReadPIDs = slices.Compact(reads)
	return tp, nil
}

// siteCount is the number of a transaction's bound pieces at one site.
type siteCount struct {
	site simnet.SiteID
	n    int
}

// tally counts a piece bound at site.
func tally(counts []siteCount, site simnet.SiteID) []siteCount {
	for i := range counts {
		if counts[i].site == site {
			counts[i].n++
			return counts
		}
	}
	return append(counts, siteCount{site: site, n: 1})
}

// choosePointCopy picks the cheapest copy for a point read by a
// transaction coordinated at coord, which pays a network round trip to
// reach any other site. The decision is cached by layout set and
// coordinator.
func (pl *Planner) choosePointCopy(m *metadata.PartitionMeta, ncols int, coord simnet.SiteID) metadata.Replica {
	copies := m.AllCopies()
	if len(copies) == 1 {
		return copies[0]
	}
	var buf [128]byte
	key := appendBuckets(appendCopiesKey(buf[:0], "pointcopy", copies), float64(ncols))
	key = strconv.AppendInt(append(key, "|from"...), int64(coord), 10)
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
		if c.Site != coord {
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
