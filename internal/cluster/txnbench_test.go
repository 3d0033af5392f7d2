package cluster

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/types"
)

// benchEngine builds a loaded single-site engine for the commit-path
// benchmark, with background loops slowed so the measurement reflects the
// transaction path.
func benchEngine(b *testing.B) (*Engine, *schema.Table) {
	b.Helper()
	cfg := fastConfig(ModeRowStore, 1)
	cfg.ReplicationInterval = 50 * time.Millisecond
	cfg.MaintainInterval = 100 * time.Millisecond
	e := New(cfg)
	b.Cleanup(e.Close)
	tbl, err := e.CreateTable(TableSpec{
		Name: "bench", Cols: testCols, MaxRows: 100000, Partitions: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	const rows = 4096
	data := make([]schema.Row, 0, rows)
	for i := int64(0); i < rows; i++ {
		data = append(data, schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(i), types.NewInt64(i % 10), types.NewFloat64(float64(i)), types.NewString("r"),
		}})
	}
	if err := e.LoadRows(context.Background(), tbl.ID, data); err != nil {
		b.Fatal(err)
	}
	return e, tbl
}

// BenchmarkTxnGroupCommit measures the leader/follower commit path under
// concurrent single-row update transactions; each goroutine writes its
// own row cycle so commits contend on the pipeline, not on row locks.
func BenchmarkTxnGroupCommit(b *testing.B) {
	e, tbl := benchEngine(b)
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := seq.Add(1)
		sess := e.NewSession()
		row := (id * 37) % 4096
		i := 0
		for pb.Next() {
			i++
			_, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{
				Ops: []query.Op{updateOp(tbl, row, 2, types.NewFloat64(float64(i)))},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
