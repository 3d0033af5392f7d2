package exec

import (
	"testing"

	"proteus/internal/types"
)

// TestColRelBytesFrom checks that BytesFrom sizes only the rows from its
// argument on, by their own sampled width — what a per-site gather charges
// for each batch it appends — and that Rel's tuples, though they share one
// backing array, cannot grow into each other.
func TestColRelBytesFrom(t *testing.T) {
	c := NewColRel([]string{"s"})
	for i := 0; i < 40; i++ {
		c.Vecs[0].Append(types.NewString("ab")) // 6 bytes
	}
	for i := 0; i < 10; i++ {
		c.Vecs[0].Append(types.NewString("abcdef")) // 10 bytes
	}
	c.SetRows(50)
	for _, tc := range []struct{ from, want int }{{40, 10 * 10}, {0, 50 * 6}, {30, 20 * 8}, {50, 0}} {
		if got := c.BytesFrom(tc.from); got != tc.want {
			t.Errorf("BytesFrom(%d) = %d, want %d", tc.from, got, tc.want)
		}
	}
	if got := c.RowBytes(); got != 6 {
		t.Errorf("RowBytes = %d, want 6 (the first 32 rows)", got)
	}
	rel := c.Rel()
	_ = append(rel.Tuples[0], types.NewString("x"))
	if got := rel.Tuples[1][0].S; got != "ab" {
		t.Errorf("appending to tuple 0 overwrote tuple 1 with %q", got)
	}
}
