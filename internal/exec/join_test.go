package exec

// Regression tests for the join-layer bugfixes: HashJoin's left-major row
// order must hold regardless of which side builds the hash table, it must
// agree with a plain nested loop on NULL-key semantics (NULL == NULL
// matches, as types.Equal has it; a CmpOp.Eval filter never selects a
// NULL), and joinObs selectivity must not overflow.

import (
	"math/rand"
	"reflect"
	"testing"

	"proteus/internal/storage"
	"proteus/internal/types"
)

// TestHashJoinLeftMajorUnderSwap pins the exact output order when the
// build-side swap triggers (l smaller than r): rows must still come in
// ascending left index, then ascending right index.
func TestHashJoinLeftMajorUnderSwap(t *testing.T) {
	l := rel([]string{"lk", "la"}, iv(1, 100), iv(2, 200), iv(1, 300))
	r := rel([]string{"rk", "rb"},
		iv(2, 20), iv(1, 11), iv(1, 12), iv(3, 30), iv(2, 21))
	if l.NumRows() >= r.NumRows() {
		t.Fatal("test needs l smaller than r to trigger the build swap")
	}
	out, _ := HashJoin(l, r, []int{0}, []int{0})
	// Left-major: l0 (k=1) matches r1, r2; l1 (k=2) matches r0, r4;
	// l2 (k=1) matches r1, r2.
	want := [][2]int64{{100, 11}, {100, 12}, {200, 20}, {200, 21}, {300, 11}, {300, 12}}
	if out.NumRows() != len(want) {
		t.Fatalf("rows = %d, want %d", out.NumRows(), len(want))
	}
	for i, tup := range out.Tuples {
		if tup[1].Int() != want[i][0] || tup[3].Int() != want[i][1] {
			t.Errorf("row %d = (%v, %v), want %v", i, tup[1], tup[3], want[i])
		}
	}
}

// nestedLoopJoin is the oracle HashJoin is held to: every (l, r) pair
// whose keys are types.Equal, as concatenated tuples in ascending left
// index, then ascending right index.
func nestedLoopJoin(l, r Rel, lKey, rKey int) [][]types.Value {
	var out [][]types.Value
	for _, lt := range l.Tuples {
		for _, rt := range r.Tuples {
			if !lt[lKey].IsNull() && types.Equal(lt[lKey], rt[rKey]) {
				out = append(out, append(append([]types.Value(nil), lt...), rt...))
			}
		}
	}
	return out
}

// TestJoinRowOrderDifferential joins random relations with HashJoin — the
// build side swapping with their sizes — and requires the nested loop's
// output, row for row and in the same order.
func TestJoinRowOrderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nl, nr := rng.Intn(12), rng.Intn(12)
		mk := func(n int) Rel {
			out := Rel{Cols: []string{"k", "v"}}
			for i := 0; i < n; i++ {
				// The payload column keeps tuples distinguishable.
				out.Tuples = append(out.Tuples, iv(int64(rng.Intn(4)), int64(i)))
			}
			return out
		}
		l, r := mk(nl), mk(nr)

		hj, _ := HashJoin(l, r, []int{0}, []int{0})
		if nj := nestedLoopJoin(l, r, 0, 0); !reflect.DeepEqual(hj.Tuples, nj) {
			t.Fatalf("trial %d (|l|=%d |r|=%d): hash != nested\nhash:   %v\nnested: %v",
				trial, nl, nr, hj.Tuples, nj)
		}
	}
}

// TestJoinNullKeys pins SQL's NULL-key semantics: a NULL key matches
// nothing, not even another NULL — as a filter's CmpEq never selects a
// NULL — and HashJoin agrees with the nested loop.
func TestJoinNullKeys(t *testing.T) {
	null := types.Null()
	l := Rel{Cols: []string{"k", "a"}, Tuples: [][]types.Value{
		{null, types.NewInt64(1)},
		{types.NewInt64(7), types.NewInt64(2)},
	}}
	r := Rel{Cols: []string{"k", "b"}, Tuples: [][]types.Value{
		{null, types.NewInt64(10)},
		{types.NewInt64(7), types.NewInt64(20)},
		{types.NewInt64(8), types.NewInt64(30)},
	}}
	// Sanity: the filter the join agrees with.
	if storage.CmpEq.Eval(null, null) {
		t.Fatal("CmpEq.Eval(NULL, NULL) must not hold")
	}

	hj, _ := HashJoin(l, r, []int{0}, []int{0})
	// Expect only (7,2,7,20): the NULL keys meet nothing.
	if hj.NumRows() != 1 {
		t.Fatalf("hash join rows = %d: %v", hj.NumRows(), hj.Tuples)
	}
	if hj.Tuples[0][1].Int() != 2 || hj.Tuples[0][3].Int() != 20 {
		t.Errorf("non-NULL row wrong: %v", hj.Tuples[0])
	}
	if nj := nestedLoopJoin(l, r, 0, 0); !reflect.DeepEqual(hj.Tuples, nj) {
		t.Errorf("hash join and nested loop disagree on NULL keys:\nhash:   %v\nnested: %v",
			hj.Tuples, nj)
	}
}

// TestJoinObsSelectivityFinite checks joinObs' float64 selectivity stays a
// valid fraction (the int product l.NumRows()*r.NumRows() used to overflow
// on large relations; the computation now happens in float64).
func TestJoinObsSelectivityFinite(t *testing.T) {
	l := rel([]string{"k"}, iv(1), iv(2))
	r := rel([]string{"k"}, iv(1), iv(2), iv(3))
	out, obs := HashJoin(l, r, []int{0}, []int{0})
	sel := obs.Features[4]
	want := float64(out.NumRows()) / (float64(l.NumRows()) * float64(r.NumRows()))
	if sel != want || sel < 0 || sel > 1 {
		t.Errorf("selectivity = %v, want %v", sel, want)
	}
}
