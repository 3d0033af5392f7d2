package cluster

import (
	"context"
	"slices"
	"testing"

	"proteus/internal/partition"
	"proteus/internal/query"
	"proteus/internal/types"
)

// TestTxnCoAccessEdges checks the co-access signal a transaction leaves in
// the directory: a read-modify-write of five rows over three partitions
// (ten ops) joins each pair of the three both ways and no partition to
// itself, and five ops on one partition record no edge at all.
func TestTxnCoAccessEdges(t *testing.T) {
	e, tbl := newTestEngine(t, ModeRowStore, 2, 4, 10) // 25 000 rows per partition
	rowsAt(t, e, tbl, 25000, 10)
	rowsAt(t, e, tbl, 50000, 10)
	rowsAt(t, e, tbl, 75000, 10)
	ctx := context.Background()
	sess := e.NewSession()
	metas := e.Dir.TablePartitions(tbl.ID)

	rmw := &query.Txn{}
	for _, row := range []int64{1, 2, 25001, 25002, 50001} {
		rmw.Ops = append(rmw.Ops, readOp(tbl, row, 2), updateOp(tbl, row, 2, types.NewFloat64(-1)))
	}
	if _, err := e.ExecuteTxn(ctx, sess, rmw); err != nil {
		t.Fatal(err)
	}
	touched := metas[:3]
	for _, m := range touched {
		got := m.CoAccessed(0)
		slices.Sort(got)
		var want []partition.ID
		for _, o := range touched {
			if o != m {
				want = append(want, o.ID)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("partition %d co-accessed with %v, want %v", m.ID, got, want)
		}
	}

	single := &query.Txn{}
	for row := int64(75000); row < 75005; row++ {
		single.Ops = append(single.Ops, updateOp(tbl, row, 2, types.NewFloat64(-1)))
	}
	if _, err := e.ExecuteTxn(ctx, sess, single); err != nil {
		t.Fatal(err)
	}
	if got := metas[3].CoAccessed(0); len(got) != 0 {
		t.Errorf("a single-partition transaction left partition %d co-accessed with %v", metas[3].ID, got)
	}
}
