package storage

import (
	"testing"
	"testing/quick"

	"proteus/internal/types"
)

func TestCmpOpEval(t *testing.T) {
	two, three := types.NewInt64(2), types.NewInt64(3)
	cases := []struct {
		op   CmpOp
		a, b types.Value
		want bool
	}{
		{CmpEq, two, two, true},
		{CmpEq, two, three, false},
		{CmpNe, two, three, true},
		{CmpLt, two, three, true},
		{CmpLe, two, two, true},
		{CmpGt, three, two, true},
		{CmpGe, two, three, false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
	// A comparison with NULL is false whichever side the NULL is on.
	for _, op := range []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe} {
		for _, p := range [][2]types.Value{{types.Null(), two}, {two, types.Null()}, {types.Null(), types.Null()}} {
			if op.Eval(p[0], p[1]) {
				t.Errorf("%v %v %v = true, want false", p[0], op, p[1])
			}
		}
	}
}

// TestFilterVecSkipsNull: no kernel selects a NULL cell or matches a NULL
// constant — the plain vector's NULL-bearing path and every encoding.
func TestFilterVecSkipsNull(t *testing.T) {
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	nullable := &Vec{}
	for _, v := range []types.Value{types.NewInt64(1), types.Null(), types.NewInt64(9)} {
		nullable.Append(v)
	}
	vecs := map[string]*Vec{
		"plain": {Kind: types.KindInt64, I64: []int64{1, 5, 9}},
		"dict":  func() *Vec { v := DictVec([]uint32{0, 1, 1}, []string{"a", "b"}); return &v }(),
		"for":   func() *Vec { v := FoRVec(types.KindInt64, 10, []uint32{0, 3, 7}); return &v }(),
		"runs":  func() *Vec { v := RunsVec(types.KindInt64, []int64{4, 6}, nil, nil, []uint32{2, 3}); return &v }(),
	}
	for _, op := range ops {
		for name, v := range vecs {
			if got := FilterVec(nil, nil, v.Len(), v, op, types.Null()); len(got) != 0 {
				t.Errorf("%s %v NULL kept rows %v", name, op, got)
			}
		}
		for _, sel := range [][]int32{nil, {0, 1, 2}} {
			got := FilterVec(nil, sel, 3, nullable, op, types.NewInt64(5))
			for _, i := range got {
				if i == 1 {
					t.Errorf("NULL %v 5 kept the NULL row (sel %v)", op, sel)
				}
			}
		}
	}
}

func TestPredMatch(t *testing.T) {
	p := Pred{
		{Col: 0, Op: CmpGe, Val: types.NewInt64(10)},
		{Col: 1, Op: CmpEq, Val: types.NewString("a")},
	}
	if !p.Match([]types.Value{types.NewInt64(10), types.NewString("a")}) {
		t.Error("should match")
	}
	if p.Match([]types.Value{types.NewInt64(9), types.NewString("a")}) {
		t.Error("conjunct 0 fails")
	}
	if p.Match([]types.Value{types.NewInt64(10), types.NewString("b")}) {
		t.Error("conjunct 1 fails")
	}
	// Out-of-range column never matches.
	if p.Match([]types.Value{types.NewInt64(10)}) {
		t.Error("short row matched")
	}
	// Empty predicate matches everything.
	if !(Pred{}).Match(nil) || !(Pred(nil)).Match(nil) {
		t.Error("empty pred should match")
	}
}

func TestPredColumns(t *testing.T) {
	p := Pred{{Col: 2}, {Col: 0}, {Col: 2}}
	cols := p.Columns()
	if len(cols) != 2 || cols[0] != 2 || cols[1] != 0 {
		t.Errorf("Columns = %v", cols)
	}
}

func TestLayoutString(t *testing.T) {
	l := Layout{Format: ColumnFormat, Tier: MemoryTier, SortBy: 1, Compressed: true}
	if got := l.String(); got != "column/memory/sorted(1)/rle" {
		t.Errorf("layout = %q", got)
	}
	l = DefaultRowLayout()
	if got := l.String(); got != "row/memory" {
		t.Errorf("layout = %q", got)
	}
}

func TestOpStrings(t *testing.T) {
	ops := map[CmpOp]string{CmpEq: "=", CmpNe: "<>", CmpLt: "<", CmpLe: "<=", CmpGt: ">", CmpGe: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("op %d = %q", op, op.String())
		}
	}
}

// Property: Eval(CmpLt) and Eval(CmpGe) partition all int pairs.
func TestCmpComplementProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := types.NewInt64(a), types.NewInt64(b)
		return CmpLt.Eval(va, vb) != CmpGe.Eval(va, vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
