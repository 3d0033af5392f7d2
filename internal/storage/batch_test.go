package storage

import (
	"math"
	"math/rand"
	"testing"

	"proteus/internal/schema"
	"proteus/internal/types"
)

// TestFilterVecMatchesBoxedEval checks every typed filter fast path against
// the boxed CmpOp.Eval reference over randomized vectors — including NaN
// floats, whose three-way comparison semantics (NaN compares equal to
// everything under types.Compare) the kernels must reproduce bit-for-bit.
func TestFilterVecMatchesBoxedEval(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	const n = 200

	mkInt := func() *Vec {
		v := &Vec{}
		for i := 0; i < n; i++ {
			v.Append(types.NewInt64(int64(r.Intn(20) - 10)))
		}
		return v
	}
	mkFloat := func() *Vec {
		v := &Vec{}
		for i := 0; i < n; i++ {
			if r.Intn(10) == 0 {
				v.Append(types.NewFloat64(math.NaN()))
			} else {
				v.Append(types.NewFloat64(float64(r.Intn(20)) - 10))
			}
		}
		return v
	}
	mkStr := func() *Vec {
		v := &Vec{}
		words := []string{"", "a", "ab", "b", "zz"}
		for i := 0; i < n; i++ {
			v.Append(types.NewString(words[r.Intn(len(words))]))
		}
		return v
	}
	mkNullable := func() *Vec {
		v := &Vec{}
		for i := 0; i < n; i++ {
			if r.Intn(5) == 0 {
				v.Append(types.Value{})
			} else {
				v.Append(types.NewInt64(int64(r.Intn(10))))
			}
		}
		return v
	}

	cases := []struct {
		name string
		vec  *Vec
		val  types.Value
	}{
		{"int-int", mkInt(), types.NewInt64(int64(r.Intn(20) - 10))},
		{"int-bool", mkInt(), types.NewBool(true)}, // int family × int family
		{"float-float", mkFloat(), types.NewFloat64(3)},
		{"float-nan", mkFloat(), types.NewFloat64(math.NaN())},
		{"int-float", mkInt(), types.NewFloat64(2.5)},
		{"float-int", mkFloat(), types.NewInt64(4)},
		{"str-str", mkStr(), types.NewString("ab")},
		{"null-vec", mkNullable(), types.NewInt64(5)}, // boxed fallback
		{"null-val", mkInt(), types.Value{}},          // boxed fallback
	}
	sels := [][]int32{nil, {0, 3, 7, 11, 50, 51, 52, 199}}

	for _, tc := range cases {
		for _, op := range ops {
			for si, sel := range sels {
				got := FilterVec(nil, sel, tc.vec.Len(), tc.vec, op, tc.val)
				var want []int32
				check := func(i int32) {
					if op.Eval(tc.vec.Value(int(i)), tc.val) {
						want = append(want, i)
					}
				}
				if sel == nil {
					for i := 0; i < tc.vec.Len(); i++ {
						check(int32(i))
					}
				} else {
					for _, i := range sel {
						check(i)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%v/sel%d: %d matches, want %d", tc.name, op, si, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%v/sel%d: got[%d]=%d, want %d", tc.name, op, si, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestBatchAppendSelectRecycle exercises the batch building blocks: typed
// append with kind adoption, selection-vector iteration, row
// materialization, and pool recycling that must drop views and string
// payloads.
func TestBatchAppendSelectRecycle(t *testing.T) {
	before := ReadBatchStats()
	b := GetBatch(2)
	b.AppendRow(10, []types.Value{types.NewInt64(1), types.NewString("x")})
	b.AppendRow(11, []types.Value{types.NewInt64(2), types.NewString("y")})
	b.AppendRow(12, []types.Value{types.NewInt64(3), types.NewString("z")})
	if b.NumRows() != 3 || b.Len() != 3 {
		t.Fatalf("rows = %d/%d", b.NumRows(), b.Len())
	}
	b.Sel = []int32{0, 2}
	if b.Len() != 2 {
		t.Fatalf("selected len = %d", b.Len())
	}
	var ids []schema.RowID
	b.Selected(func(row int) bool {
		ids = append(ids, b.RowIDs[row])
		return true
	})
	if len(ids) != 2 || ids[0] != 10 || ids[1] != 12 {
		t.Fatalf("ids = %v", ids)
	}
	var tuples [][]types.Value
	tuples = b.AppendTuples(tuples)
	if len(tuples) != 2 || tuples[1][0].Int() != 3 || tuples[1][1].Str() != "z" {
		t.Fatalf("tuples = %v", tuples)
	}
	PutBatch(b)

	after := ReadBatchStats()
	if after.PoolPuts != before.PoolPuts+1 || after.PoolGets != before.PoolGets+1 {
		t.Fatalf("pool stats: %+v -> %+v", before, after)
	}
	if BatchPoolBalance() != 0 {
		t.Fatalf("pool balance = %d", BatchPoolBalance())
	}

	// A recycled batch must come back empty even after holding views.
	b2 := GetBatch(1)
	b2.SetRowIDsView([]schema.RowID{1, 2, 3})
	b2.Vecs[0] = ViewVec(types.KindInt64, []int64{7, 8, 9}, nil, nil, nil)
	PutBatch(b2)
	b3 := GetBatch(1)
	defer PutBatch(b3)
	if b3.NumRows() != 0 || b3.Sel != nil || b3.Vecs[0].Len() != 0 {
		t.Fatalf("recycled batch not reset: rows=%d sel=%v veclen=%d", b3.NumRows(), b3.Sel, b3.Vecs[0].Len())
	}
}

// TestScanViaBatchesStopsEarly pins the shim's early-termination contract:
// a row callback returning false must stop the whole scan.
func TestScanViaBatchesStopsEarly(t *testing.T) {
	bs := fakeBatchScanner{n: 1000}
	seen := 0
	ScanViaBatches(bs, []schema.ColID{0}, nil, Latest, func(r schema.Row) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("rows seen = %d, want 5", seen)
	}
}

type fakeBatchScanner struct{ n int }

func (f fakeBatchScanner) ScanBatches(cols []schema.ColID, pred Pred, snap uint64, maxRows int, fn func(*Batch) bool) {
	if maxRows <= 0 {
		maxRows = DefaultBatchRows
	}
	b := GetBatch(len(cols))
	defer PutBatch(b)
	vals := make([]types.Value, len(cols))
	for i := 0; i < f.n; i++ {
		for j := range vals {
			vals[j] = types.NewInt64(int64(i))
		}
		b.AppendRow(schema.RowID(i), vals)
		if b.NumRows() >= maxRows {
			if !EmitBatch(b, fn) {
				return
			}
			b.Reset(len(cols))
		}
	}
	if b.NumRows() > 0 {
		EmitBatch(b, fn)
	}
}
