package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/types"
)

// readBack reads every cell the op list wrote, through the engine's own
// transaction path, and requires the last acknowledged value.
func readBack(e *cluster.Engine, stored map[cell]types.Value) error {
	cells := make([]cell, 0, len(stored))
	for c := range stored {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.table != b.table {
			return a.table < b.table
		}
		if a.row != b.row {
			return a.row < b.row
		}
		return a.col < b.col
	})
	const perTxn = 64
	sess := e.NewSession()
	for lo := 0; lo < len(cells); lo += perTxn {
		hi := min(lo+perTxn, len(cells))
		t := &query.Txn{}
		for _, c := range cells[lo:hi] {
			t.Ops = append(t.Ops, query.Op{Kind: query.OpRead, Table: c.table, Row: c.row, Cols: []schema.ColID{c.col}})
		}
		rel, err := e.ExecuteTxn(context.Background(), sess, t)
		if err != nil {
			return fmt.Errorf("read-back: %w", err)
		}
		if len(rel.Tuples) != hi-lo {
			return fmt.Errorf("read-back returned %d tuples for %d reads", len(rel.Tuples), hi-lo)
		}
		for i, c := range cells[lo:hi] {
			want := stored[c]
			if len(rel.Tuples[i]) != 1 || !valsMatch(rel.Tuples[i][0], want) {
				return fmt.Errorf("read-back table %d row %d col %d: stored %v, last acked %v", c.table, c.row, c.col, rel.Tuples[i], want)
			}
		}
	}
	return nil
}

// waitReplicasDrained requires every replica subscription's lag to reach 0
// once writes have stopped.
func waitReplicasDrained(e *cluster.Engine) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		lagging := ""
		for _, s := range e.Sites {
			for pid := range s.Repl.Offsets() {
				if lag := s.Repl.Lag(pid); lag > 0 {
					lagging = fmt.Sprintf("site %d partition %d lags %d records", s.ID, pid, lag)
				}
			}
		}
		if lagging == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not drain: %s", lagging)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
