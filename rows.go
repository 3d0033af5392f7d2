package proteus

import (
	"fmt"

	"proteus/internal/cluster"
)

// Rows is a streaming result cursor in the database/sql style. For a scan,
// or a join pipelined over one, the rows arrive incrementally from the
// morsel executor while sites are still scanning. An aggregate, or a join
// the pipeline cannot serve (a build side over the spill budget, a probe
// side that is not a scan), materializes first and the cursor iterates the
// result. Always Close a cursor (or drain it with Next) — Close cancels the
// distributed scan and waits for its workers, so an abandoned cursor leaks
// no goroutines.
type Rows struct {
	cur *cluster.RowCursor
}

// Columns returns the result column labels.
func (r *Rows) Columns() []string { return r.cur.Cols() }

// Next advances to the next row, reporting whether one is available.
// After it returns false, check Err for a terminal failure.
func (r *Rows) Next() bool { return r.cur.Next() }

// Scan copies the current row's values into dest, one pointer per
// result column. Valid only after Next returned true.
func (r *Rows) Scan(dest ...*Value) error {
	row := r.cur.Row()
	if len(dest) != len(row) {
		return fmt.Errorf("proteus: Scan got %d destinations for %d columns", len(dest), len(row))
	}
	for i := range dest {
		*dest[i] = row[i]
	}
	return nil
}

// Row returns the current row's values directly. The slice is owned by
// the cursor until the following Next call.
func (r *Rows) Row() []Value { return r.cur.Row() }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.cur.Err() }

// Close cancels the query and releases the cursor; safe to call more
// than once.
func (r *Rows) Close() error { return r.cur.Close() }
