package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"proteus/internal/storage"
	"proteus/internal/types"
)

// TestGroupWindowMatchesHashPath holds groupIDs' window — a single typed
// key column spanning fewer values than its batch has rows — to the hash
// table alone. Observe boxes every key, so it never takes the window;
// ObserveBatch and MergeFrom must produce its Rel() row for row, group
// order included, and the reference aggregate agrees with both. Each case
// also pins whether its batches take the window: a span of n-1 values in
// an n-row batch does, n and n+1 do not.
func TestGroupWindowMatchesHashPath(t *testing.T) {
	specs := []AggSpec{{Func: AggCount}, {Func: AggSum, Col: 1}, {Func: AggMin, Col: 1}, {Func: AggMax, Col: 1}, {Func: AggAvg, Col: 1}}
	ints := func(xs ...int64) Vec { return storage.ViewVec(types.KindInt64, xs, nil, nil, nil) }
	floats := func(xs ...float64) Vec { return storage.ViewVec(types.KindFloat64, nil, xs, nil, nil) }
	vals := func(n int) Vec {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(i*7%11 - 5)
		}
		return ints(xs...)
	}
	const lo, hi = math.MinInt64, math.MaxInt64
	nulls := ints(1, 2, 1, 2, 1, 2)
	nulls.Null = []bool{false, false, true, false, false, false}

	type tc struct {
		name     string
		groupBy  []int
		windowed bool
		batches  []*Batch
	}
	cases := []tc{
		{"span-n-1", []int{0}, true, []*Batch{vecBatch(8, nil, ints(16, 10, 12, 16, 11, 13, 14, 15), vals(8))}},
		{"span-n", []int{0}, false, []*Batch{vecBatch(8, nil, ints(17, 10, 12, 16, 11, 13, 14, 15), vals(8))}},
		{"span-n+1", []int{0}, false, []*Batch{vecBatch(8, nil, ints(18, 10, 12, 16, 11, 13, 14, 15), vals(8))}},
		{"span-n-1-sel", []int{0}, true, []*Batch{vecBatch(8, []int32{0, 2, 3, 6, 7}, ints(9, 10, 12, 10, 11, 13, 12, 10), vals(8))}},
		{"near-min", []int{0}, true, []*Batch{vecBatch(6, nil, ints(lo+2, lo, lo+1, lo, lo+2, lo+1), vals(6))}},
		{"near-max", []int{0}, true, []*Batch{vecBatch(6, nil, ints(hi, hi-2, hi, hi-1, hi-2, hi), vals(6))}},
		// hi - lo overflows int64: computed there, the span would read as
		// negative and fit any window.
		{"min-max", []int{0}, false, []*Batch{vecBatch(6, nil, ints(lo, hi, lo, hi, hi, lo), vals(6))}},
		{"minus-one-max", []int{0}, false, []*Batch{vecBatch(6, nil, ints(-1, hi, -1, hi, hi, -1), vals(6))}},
		{"for", []int{0}, true, []*Batch{
			vecBatch(6, nil, storage.FoRVec(types.KindInt64, 40, []uint32{3, 1, 0, 3, 1, 2}), vals(6)),
			vecBatch(6, []int32{1, 2, 5}, storage.FoRVec(types.KindInt64, 41, []uint32{5, 0, 5, 1, 0, 0}), vals(6)),
		}},
		{"integral-float", []int{0}, true, []*Batch{
			vecBatch(6, nil, floats(2, 1, 3, 1, 2, 2), vals(6)),
			vecBatch(4, nil, ints(3, 4, 4, 3), vals(4)),
		}},
		{"null-key", []int{0}, false, []*Batch{vecBatch(6, nil, nulls, vals(6))}},
		{"two-keys", []int{0, 2}, false, []*Batch{vecBatch(6, nil, ints(1, 2, 1, 2, 1, 2), vals(6), ints(0, 0, 1, 1, 0, 0))}},
	}
	// Forty 64-row batches of twenty keys each, half of them new: the
	// table grows through reserve while windows hand it new keys.
	var grow []*Batch
	for b := int64(0); b < 40; b++ {
		keys := make([]int64, 64)
		for i := range keys {
			keys[i] = b*10 + int64((i*13)%20)
		}
		grow = append(grow, vecBatch(64, nil, ints(keys...), vals(64)))
	}
	cases = append(cases, tc{"reserve", []int{0}, true, grow})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			probe := NewAggregator(c.groupBy, specs)
			probe.ObserveBatch(c.batches[0])
			// The window is cleared when a batch takes it, not after:
			// a fresh aggregator's window holds group ids only if taken.
			if got := slices.Max(probe.win) > 0; got != c.windowed {
				t.Fatalf("window taken = %v, want %v", got, c.windowed)
			}
			rowAgg, batchAgg := NewAggregator(c.groupBy, specs), NewAggregator(c.groupBy, specs)
			for _, b := range c.batches {
				b.Selected(func(row int) bool {
					rowAgg.Observe(b.Row(row, nil))
					return true
				})
				batchAgg.ObserveBatch(b)
			}
			want, got := rowAgg.Rel(nil).Tuples, batchAgg.Rel(nil).Tuples
			if len(got) != len(want) {
				t.Fatalf("%d groups, want %d", len(got), len(want))
			}
			for i := range want {
				for k := range want[i] {
					if got[i][k] != want[i][k] {
						t.Fatalf("row %d col %d: %+v, want %+v", i, k, got[i][k], want[i][k])
					}
				}
			}
			checkAggregate(t, c.groupBy, specs, c.batches)
		})
	}
}

// TestMergedSharesMatchOneAggregator holds the coordinator's combine to
// one aggregator over every row: the rows split into K shards (K = 0, 1,
// 3), each shard aggregated on its own and the shards merged in order into
// a fresh aggregator (MergeFrom), must give the same Rel, value for value
// and in first-seen group order, for every aggregate function. Each
// share's PartialBytes must equal the bytes of the boxed relation it
// stands for: its keys and each aggregate's state, AVG's as SUM(col) and
// COUNT(col), priced by Rel.RowBytes.
func TestMergedSharesMatchOneAggregator(t *testing.T) {
	specs := []AggSpec{
		{Func: AggSum, Col: 1}, {Func: AggCount}, {Func: AggMin, Col: 1}, {Func: AggMax, Col: 1},
		{Func: AggAvg, Col: 1}, {Func: AggCountCol, Col: 1}, {Func: AggSum, Col: 2}, {Func: AggAvg, Col: 2},
	}
	// state is the aggregate state a share carries, one boxed spec per
	// column of its partial relation.
	var state []AggSpec
	for _, sp := range specs {
		if sp.Func == AggAvg {
			state = append(state, AggSpec{Func: AggSum, Col: sp.Col}, AggSpec{Func: AggCountCol, Col: sp.Col})
		} else {
			state = append(state, sp)
		}
	}
	ints := func(xs ...int64) Vec { return storage.ViewVec(types.KindInt64, xs, nil, nil, nil) }
	floats := func(xs ...float64) Vec { return storage.ViewVec(types.KindFloat64, nil, xs, nil, nil) }
	// Rows are [key, int value with NULLs, float value]; key 9's values
	// are all NULL.
	nullInts := func(xs ...int64) Vec {
		v := ints(xs...)
		v.Null = make([]bool, len(xs))
		for i, x := range xs {
			v.Null[i] = x < 0
		}
		return v
	}
	batches := []*Batch{
		vecBatch(6, nil, ints(1, 9, 2, 1, 9, 3), nullInts(5, -1, 7, -1, -1, 2), floats(0.5, 1, 1.5, 2, 2.5, 3)),
		vecBatch(5, []int32{0, 1, 3, 4}, floats(2, 4, 1, 9, 3), nullInts(4, 6, 8, -1, -1), floats(0.25, 0.75, 1, 1.25, 8)),
		vecBatch(6, nil, storage.FoRVec(types.KindInt64, 1, []uint32{0, 3, 8, 1, 4, 0}), nullInts(-1, 3, -1, 9, 1, 6), floats(4, 5, 6, 7, 8, 9)),
		vecBatch(4, []int32{1, 2}, storage.FoRVec(types.KindInt64, 5, []uint32{0, 1, 4, 2}), nullInts(1, 2, -1, 4), floats(1, 2, 3, 4)),
		vecBatch(3, nil, ints(5, 2, 9), nullInts(11, -1, -1), floats(0.125, 0.5, 0.75)),
	}
	for _, groupBy := range [][]int{nil, {0}} {
		for _, k := range []int{0, 1, 3} {
			in := batches
			if k == 0 {
				in = nil
			}
			name := fmt.Sprintf("groupBy=%v/K=%d", groupBy, k)
			whole := NewAggregator(groupBy, specs)
			coord := NewAggregator(groupBy, specs)
			for s := range k {
				share, boxed := NewAggregator(groupBy, specs), NewAggregator(groupBy, state)
				for _, b := range in[s*len(in)/k : (s+1)*len(in)/k] {
					share.ObserveBatch(b)
					boxed.ObserveBatch(b)
					whole.ObserveBatch(b)
				}
				partial := boxed.Rel(nil)
				if got, want := share.PartialBytes(), partial.NumRows()*partial.RowBytes(); got != want {
					t.Errorf("%s: share %d PartialBytes = %d, want %d", name, s, got, want)
				}
				coord.MergeFrom(share)
			}
			want := whole.Rel(nil)
			if len(groupBy) == 0 && len(want.Tuples) != 1 {
				t.Fatalf("%s: global aggregate gave %d rows, want 1", name, len(want.Tuples))
			}
			if coord.Groups() != len(want.Tuples) {
				t.Errorf("%s: Groups() = %d, want %d", name, coord.Groups(), len(want.Tuples))
			}
			sameTuples(t, name, coord.Rel(nil).Tuples, want.Tuples)
			var tuples [][]types.Value
			for _, b := range in {
				b.Selected(func(row int) bool {
					tuples = append(tuples, b.Row(row, nil))
					return true
				})
			}
			sameTuples(t, name+"/reference", want.Tuples, refAggregate(tuples, groupBy, specs))
		}
	}
	// The empty global share ships its one row: COUNT 0, the rest NULL.
	empty, boxed := NewAggregator(nil, specs), NewAggregator(nil, state).Rel(nil)
	if got, want := empty.PartialBytes(), boxed.NumRows()*boxed.RowBytes(); got != want || got == 0 {
		t.Errorf("empty global share: PartialBytes = %d, want %d", got, want)
	}
	row := empty.Rel(nil).Tuples[0]
	for i, sp := range specs {
		if sp.Func == AggCount || sp.Func == AggCountCol {
			if row[i].Int() != 0 {
				t.Errorf("empty global %v = %v, want 0", sp.Func, row[i])
			}
		} else if !row[i].IsNull() {
			t.Errorf("empty global %v = %v, want NULL", sp.Func, row[i])
		}
	}
}
