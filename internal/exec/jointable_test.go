package exec

// Tests for the shared join table and the pipelined probe: the pipeline
// must produce exactly the rows BatchHashJoin and the row HashJoin produce
// (the row joins are the oracle), whatever the key kinds, encodings, batch
// boundaries and selections; one table must serve many concurrent probers;
// and the hash must keep buckets short on the key shapes the workloads have.

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// probeBatches cuts a relation into scan-like batches of 1..7 physical
// rows. Rows whose keep flag is false stay in the batch but outside its
// selection, and null-free int or string key columns are randomly FoR- or
// dictionary-encoded (FoR when the batch's keys span at most 2^32), so
// probes see every vector shape a store emits.
func probeBatches(rng *rand.Rand, r Rel, keep []bool, key int) []*storage.Batch {
	var out []*storage.Batch
	for lo := 0; lo < len(r.Tuples); {
		hi := lo + 1 + rng.Intn(7)
		if hi > len(r.Tuples) {
			hi = len(r.Tuples)
		}
		b := &storage.Batch{Vecs: make([]storage.Vec, len(r.Cols))}
		ids := make([]schema.RowID, hi-lo)
		allKept, ints, strs := true, true, true
		for i, t := range r.Tuples[lo:hi] {
			ids[i] = schema.RowID(lo + i)
			for c := range b.Vecs {
				b.Vecs[c].Append(t[c])
			}
			allKept = allKept && keep[lo+i]
			ints = ints && t[key].K == types.KindInt64
			strs = strs && t[key].K == types.KindString
		}
		b.SetRowIDsView(ids)
		if !allKept || rng.Intn(2) == 0 {
			b.Sel = []int32{}
			for i := lo; i < hi; i++ {
				if keep[i] {
					b.Sel = append(b.Sel, int32(i-lo))
				}
			}
		}
		base, top := int64(0), int64(0)
		if ints {
			base, top = r.Tuples[lo][key].I, r.Tuples[lo][key].I
			for _, t := range r.Tuples[lo:hi] {
				base, top = min(base, t[key].I), max(top, t[key].I)
			}
		}
		switch {
		case ints && uint64(top)-uint64(base) <= math.MaxUint32 && rng.Intn(2) == 0:
			codes := make([]uint32, hi-lo)
			for i, t := range r.Tuples[lo:hi] {
				codes[i] = uint32(t[key].I - base)
			}
			b.Vecs[key] = storage.FoRVec(types.KindInt64, base, codes)
		case strs && rng.Intn(2) == 0:
			var dict []string
			for _, t := range r.Tuples[lo:hi] {
				dict = append(dict, t[key].S)
			}
			sort.Strings(dict)
			codes := make([]uint32, hi-lo)
			for i, t := range r.Tuples[lo:hi] {
				codes[i] = uint32(sort.SearchStrings(dict, t[key].S))
			}
			b.Vecs[key] = storage.DictVec(codes, dict)
		}
		out = append(out, b)
		lo = hi
	}
	return out
}

// pipeRows drives batches through a fresh prober, boxing what comes out.
func pipeRows(p *JoinPipe, batches []*storage.Batch) [][]types.Value {
	pr := p.NewProber()
	var out [][]types.Value
	for _, b := range batches {
		if jb := pr.Apply(b); jb != nil {
			out = jb.AppendTuples(out)
		}
	}
	pr.Close()
	return out
}

func allRefs(widths ...int) []ColRef {
	var out []ColRef
	for s, w := range widths {
		for c := 0; c < w; c++ {
			out = append(out, ColRef{Stage: s - 1, Col: c})
		}
	}
	return out
}

// buildJoinTable is BuildJoinTable with the Bloom bits optionally dropped,
// as a build side past maxBloomBuildRows has them: probes then go straight
// to the buckets.
func buildJoinTable(build *ColRel, key int, bloom bool) *JoinTable {
	t := BuildJoinTable(build, key)
	if !bloom {
		t.filter.bits = nil
	}
	return t
}

func keptRows(r Rel, keep []bool) Rel {
	out := Rel{Cols: r.Cols}
	for i, t := range r.Tuples {
		if keep[i] {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// keyGen draws join keys of one of the column kinds the engine
// canonicalizes differently: ints, integral floats (which must meet the
// ints), strings, and floats that are sometimes fractional (a boxed column
// whose integral values must still meet the ints). Domains are small
// (duplicates, absent keys) and NULLs occur. Integral keys are multiples of
// scale: a typed build side of scale 1 spans few enough values to be laid
// out dense, one of scale 1000 is hashed.
func keyGen(rng *rand.Rand, kind int, scale int64) types.Value {
	if rng.Intn(10) == 0 {
		return types.Null()
	}
	k := rng.Intn(6)
	switch kind {
	case 0:
		return types.NewInt64((int64(k) - 2) * scale) // negative keys too
	case 1:
		return types.NewFloat64(float64((int64(k) - 2) * scale))
	case 2:
		return types.NewString([]string{"a", "bb", "ccc", "dd", "e", ""}[k])
	}
	if rng.Intn(3) == 0 {
		return types.NewFloat64(float64(k) - 1.5)
	}
	return types.NewFloat64(float64((int64(k) - 2) * scale))
}

// TestJoinPipeDifferential probes randomized relations through a one-stage
// pipeline and requires the rows of BatchHashJoin and of the row HashJoin,
// in the same order, for every pairing of probe and build key kinds, with
// typed build sides laid out dense (key scale 1) and hashed (scale 1000).
// The fixed key sets that follow put dense, duplicate-×4, at-threshold and
// just-over-threshold build sides under probes of every representation.
func TestJoinPipeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	check := func(probe Rel, keep []bool, build Rel, ctx string) {
		t.Helper()
		kept := keptRows(probe, keep)
		want, _ := HashJoin(kept, build, []int{0}, []int{0})
		kc, bc := ColRelFromRel(kept), ColRelFromRel(build)
		viaBatch, _, err := BatchHashJoin(&kc, &bc, 0, 0, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tuplesEqual(t, viaBatch.Rel().Tuples, want.Tuples, ctx+": BatchHashJoin")

		for _, bloom := range []bool{false, true} {
			tbl := buildJoinTable(&bc, 0, bloom)
			pipe := NewJoinPipe([]ProbeStage{{Table: tbl, Key: ColRef{Stage: -1, Col: 0}}}, allRefs(2, 2))
			got := pipeRows(pipe, probeBatches(rng, probe, keep, 0))
			tuplesEqual(t, got, want.Tuples, ctx+": pipeline")
		}
	}
	for trial := 0; trial < 240; trial++ {
		pk, bk, scale := trial%4, trial/4%4, []int64{1, 1000}[trial/16%2]
		mk := func(n, kind int, label string) (Rel, []bool) {
			r := Rel{Cols: []string{"k", label}}
			keep := make([]bool, n)
			for i := range keep {
				r.Tuples = append(r.Tuples, []types.Value{keyGen(rng, kind, scale), types.NewInt64(int64(i))})
				keep[i] = rng.Intn(5) > 0
			}
			return r, keep
		}
		np, nb := rng.Intn(40), rng.Intn(30)
		if trial < 32 {
			np, nb = trial%2*9, trial/2%2*9 // the empty-side cases
		}
		probe, keep := mk(np, pk, "pv")
		build, _ := mk(nb, bk, "bv")
		check(probe, keep, build, "random")
	}

	const n = 40
	for _, ks := range denseKeySets(n) {
		build := Rel{Cols: []string{"k", "bv"}}
		for i, k := range ks.keys {
			build.Tuples = append(build.Tuples, []types.Value{types.NewInt64(k), types.NewInt64(int64(i))})
		}
		bc := ColRelFromRel(build)
		if got := BuildJoinTable(&bc, 0).dense; got != ks.dense {
			t.Fatalf("%s: dense = %v, want %v", ks.name, got, ks.dense)
		}
		lo, hi := slices.Min(ks.keys), slices.Max(ks.keys)
		for kind := 0; kind < 3; kind++ {
			probe := Rel{Cols: []string{"k", "pv"}}
			for x := lo - 3; x <= hi+3; x++ {
				v := types.NewInt64(x)
				switch {
				case kind == 1:
					v = types.NewFloat64(float64(x)) // typed via integral floats
				case kind == 2 && x%5 == 0:
					v = types.Null() // boxed: NULLs and fractional floats
				case kind == 2 && x%5 == 1:
					v = types.NewFloat64(float64(x) + 0.5)
				case kind == 2:
					v = types.NewFloat64(float64(x))
				}
				probe.Tuples = append(probe.Tuples, []types.Value{v, types.NewInt64(x)})
			}
			keep := make([]bool, len(probe.Tuples))
			for i := range keep {
				keep[i] = rng.Intn(5) > 0
			}
			check(probe, keep, build, ks.name)
		}
	}
}

// denseKeySets returns n-key build sets on either side of the dense rule
// (max − min + 1 ≤ 4 × rows): a permuted range, duplicates ×4, a range of
// exactly 4n and one of 4n + 1.
func denseKeySets(n int) []struct {
	name  string
	keys  []int64
	dense bool
} {
	rng := rand.New(rand.NewSource(int64(n)))
	spread := func(span int64) []int64 {
		ks := []int64{-7, -7 + span - 1} // both ends of the span
		for len(ks) < n {
			ks = append(ks, -7+rng.Int63n(span))
		}
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		return ks
	}
	perm, dup := make([]int64, n), make([]int64, n)
	for i, p := range rng.Perm(n) {
		perm[i], dup[i] = int64(p), int64(p/4)
	}
	return []struct {
		name  string
		keys  []int64
		dense bool
	}{
		{"dense", perm, true},
		{"dup-x4", dup, true},
		{"range-4n", spread(4 * int64(n)), true},
		{"range-4n+1", spread(4*int64(n) + 1), false},
	}
}

// TestJoinPipeProjection checks the two output forms: a pipeline whose
// sink reads only scan columns hands out a view of the scan batch, one
// that reads build columns gathers a dense batch — both labelled and
// ordered as requested, with the values of the full join.
func TestJoinPipeProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	probe := Rel{Cols: []string{"k", "a", "b"}}
	build := Rel{Cols: []string{"k", "x", "y"}}
	for i := 0; i < 50; i++ {
		probe.Tuples = append(probe.Tuples, []types.Value{
			types.NewInt64(int64(rng.Intn(8))), types.NewFloat64(float64(i) / 2), types.NewString("p")})
	}
	for i := 0; i < 12; i++ {
		x := types.NewInt64(int64(100 + i))
		if i%5 == 0 {
			x = types.Null() // a NULL-bearing payload column
		}
		build.Tuples = append(build.Tuples, []types.Value{
			types.NewInt64(int64(rng.Intn(8))), x, types.NewString("y")})
	}
	keep := make([]bool, len(probe.Tuples))
	for i := range keep {
		keep[i] = true
	}
	full, _ := HashJoin(probe, build, []int{0}, []int{0})
	bc := ColRelFromRel(build)
	tbl := BuildJoinTable(&bc, 0)
	for _, out := range [][]ColRef{
		{{Stage: -1, Col: 1}}, // scan-only view
		{},                    // no columns at all: COUNT(*)
		{{Stage: 0, Col: 1}, {Stage: -1, Col: 2}, {Stage: 0, Col: 0}}, // dense
	} {
		pipe := NewJoinPipe([]ProbeStage{{Table: tbl, Key: ColRef{Stage: -1, Col: 0}}}, out)
		got := pipeRows(pipe, probeBatches(rng, probe, keep, 0))
		if len(got) != len(full.Tuples) {
			t.Fatalf("out %v: %d rows, want %d", out, len(got), len(full.Tuples))
		}
		for i, row := range got {
			for c, ref := range out {
				pos := ref.Col
				if ref.Stage == 0 {
					pos += 3
				}
				if !reflect.DeepEqual(row[c], full.Tuples[i][pos]) {
					t.Fatalf("out %v row %d col %d = %v, want %v", out, i, c, row[c], full.Tuples[i][pos])
				}
			}
		}
	}
}

// TestJoinPipeChain runs a three-way left-deep chain as one pipeline with
// two stages — the second keyed once on a scan column (q7's shape, with a
// 4x fan-out) and once on a column of the first build side — and compares
// with the nested row joins.
func TestJoinPipeChain(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		scale := []int64{1, 1000}[trial/2%2] // dense or hashed tables
		mk := func(n int, cols ...string) Rel {
			r := Rel{Cols: cols}
			for i := 0; i < n; i++ {
				row := []types.Value{keyGen(rng, 0, scale), keyGen(rng, trial%2, scale), types.NewInt64(int64(i))}
				r.Tuples = append(r.Tuples, row[:len(cols)])
			}
			return r
		}
		probe, b0, b1 := mk(rng.Intn(60), "pk", "pj", "pv"), mk(rng.Intn(20), "k0", "j0", "v0"), mk(rng.Intn(25), "k1", "v1")
		keep := make([]bool, len(probe.Tuples))
		for i := range keep {
			keep[i] = rng.Intn(6) > 0
		}
		c0, c1 := ColRelFromRel(b0), ColRelFromRel(b1)
		inner, _ := HashJoin(keptRows(probe, keep), b0, []int{0}, []int{0})
		for _, second := range []ColRef{{Stage: -1, Col: 1}, {Stage: 0, Col: 1}} {
			pos := second.Col
			if second.Stage == 0 {
				pos += 3
			}
			want, _ := HashJoin(inner, b1, []int{pos}, []int{0})
			pipe := NewJoinPipe([]ProbeStage{
				{Table: buildJoinTable(&c0, 0, trial%3 == 0), Key: ColRef{Stage: -1, Col: 0}},
				{Table: buildJoinTable(&c1, 0, trial%3 == 1), Key: second},
			}, allRefs(3, 3, 2))
			got := pipeRows(pipe, probeBatches(rng, probe, keep, 0))
			tuplesEqual(t, got, want.Tuples, "chain")
		}
	}
}

// TestJoinTableConcurrentProbers shares one table between many goroutines,
// each with its own prober over its own batches (run with -race): the table
// is immutable, so every prober must see exactly the sequential answer.
func TestJoinTableConcurrentProbers(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	build := Rel{Cols: []string{"k", "v"}}
	for i := 0; i < 500; i++ {
		build.Tuples = append(build.Tuples, []types.Value{types.NewInt64(int64(rng.Intn(300))), types.NewInt64(int64(i))})
	}
	probe := Rel{Cols: []string{"k", "p"}}
	for i := 0; i < 2000; i++ {
		probe.Tuples = append(probe.Tuples, []types.Value{types.NewInt64(int64(rng.Intn(400))), types.NewInt64(int64(i))})
	}
	keep := make([]bool, len(probe.Tuples))
	for i := range keep {
		keep[i] = true
	}
	want, _ := HashJoin(probe, build, []int{0}, []int{0})
	bc := ColRelFromRel(build)
	pipe := NewJoinPipe([]ProbeStage{{Table: BuildJoinTable(&bc, 0), Key: ColRef{Stage: -1, Col: 0}}}, allRefs(2, 2))

	const workers = 8
	results := make([][][]types.Value, workers)
	batches := make([][]*storage.Batch, workers)
	for w := range batches {
		batches[w] = probeBatches(rng, probe, keep, 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = pipeRows(pipe, batches[w])
		}(w)
	}
	wg.Wait()
	for w := range results {
		tuplesEqual(t, results[w], want.Tuples, "concurrent prober")
	}
}

// TestJoinKeysMeetAcrossRepresentations pins the canonicalization rule:
// keys that compare types.Equal under the types.Value.Hash criterion meet
// whether each side took the typed or the boxed path — int against integral
// float, a typed column against a NULL-bearing (hence boxed) one — a boxed
// key with no canonical int64 (fractional float, string) never matches a
// typed table, and a NULL key matches nothing, NULL included.
func TestJoinKeysMeetAcrossRepresentations(t *testing.T) {
	col := func(vals ...types.Value) ColRel {
		c := NewColRel([]string{"k"})
		for _, v := range vals {
			c.Vecs[0].Append(v)
		}
		c.SetRows(len(vals))
		return c
	}
	i, f, s := types.NewInt64, types.NewFloat64, types.NewString
	typedInts := col(i(1), i(2), i(3))                   // typed
	typedFloats := col(f(1), f(2), f(3))                 // typed via integral floats
	boxedInts := col(i(1), types.Null(), i(3))           // boxed: NULL
	boxedFloats := col(f(1), f(2.5), f(3), types.Null()) // boxed: fractional + NULL
	fractional := col(f(0.5), f(2.5), types.Null())      // boxed, nothing canonical
	strs := col(s("1"), s("2"))
	sparseInts := col(i(1), i(3), i(900))               // typed, hashed
	sparseFloats := col(f(900), f(3), f(2))             // typed via integral floats, hashed
	wide := col(f(900), f(2.5e6), types.Null(), f(2.5)) // boxed
	for _, b := range []struct {
		c     ColRel
		dense bool
	}{{typedInts, true}, {typedFloats, true}, {boxedInts, false}, {sparseInts, false}, {sparseFloats, false}} {
		if got := BuildJoinTable(&b.c, 0).dense; got != b.dense {
			t.Fatalf("build %v: dense = %v, want %v", b.c.Rel().Tuples, got, b.dense)
		}
	}
	for _, tc := range []struct {
		name         string
		probe, build ColRel
		want         int
	}{
		{"typed int x typed float", typedInts, typedFloats, 3},
		{"typed int x hashed ints", typedInts, sparseInts, 2},
		{"typed float x hashed ints", typedFloats, sparseInts, 2},
		{"hashed floats x typed ints", sparseFloats, typedInts, 2},
		{"boxed floats x hashed ints", boxedFloats, sparseInts, 2},
		{"boxed wide x dense ints", wide, typedInts, 0},
		{"boxed wide x hashed ints", wide, sparseInts, 1},
		{"boxed wide x hashed floats", wide, sparseFloats, 1},
		{"typed x boxed ints", typedInts, boxedInts, 2},
		{"boxed ints x typed", boxedInts, typedInts, 2},
		{"boxed floats x typed ints", boxedFloats, typedInts, 2},
		{"typed ints x boxed floats", typedInts, boxedFloats, 2},
		{"boxed x boxed: NULL meets nothing", boxedInts, boxedFloats, 2},
		{"non-canonical x typed", fractional, typedInts, 0},
		{"typed x non-canonical", typedInts, fractional, 0},
		{"non-canonical x boxed floats", fractional, boxedFloats, 1},
		{"strings x typed", strs, typedInts, 0},
		{"typed x strings", typedInts, strs, 0},
	} {
		want, _ := HashJoin(tc.probe.Rel(), tc.build.Rel(), []int{0}, []int{0})
		if len(want.Tuples) != tc.want {
			t.Fatalf("%s: oracle gives %d rows, test expects %d", tc.name, len(want.Tuples), tc.want)
		}
		for _, bloom := range []bool{false, true} {
			tbl := buildJoinTable(&tc.build, 0, bloom)
			var m matches
			tbl.probe(canonKeyCol(&tc.probe.Vecs[0], tc.probe.NumRows()), &m)
			if len(m.pos) != tc.want {
				t.Errorf("%s (bloom=%v): %d matches, want %d", tc.name, bloom, len(m.pos), tc.want)
			}
			// The runtime filter must never reject a key the table holds.
			for r := 0; r < tc.build.NumRows(); r++ {
				if v := tc.build.Vecs[0].Value(r); !v.IsNull() && !tbl.Filter().TestValue(v) {
					t.Errorf("%s: filter rejects build key %v", tc.name, tc.build.Vecs[0].Value(r))
				}
			}
		}
	}
}

// TestJoinTableDenseExtremes lays dense tables out at both ends of int64
// and probes each with keys from the other end and from its own: a slot
// taken as x − min before the bounds check would wrap there.
func TestJoinTableDenseExtremes(t *testing.T) {
	const n = 8
	ends := []int64{math.MinInt64, math.MaxInt64 - 4*n + 1}
	for _, lo := range ends {
		build := NewColRel([]string{"k"})
		for i := 0; i < n; i++ {
			build.Vecs[0].Append(types.NewInt64(lo + 4*int64(i) + 3*int64(i%2))) // range 4n: dense
		}
		build.SetRows(n)
		tbl := BuildJoinTable(&build, 0)
		if !tbl.dense {
			t.Fatalf("range at %d: not dense", lo)
		}
		probe := NewColRel([]string{"k"})
		for _, base := range ends {
			for d := int64(-2); d < 4*n+2; d++ {
				if x := base + d; (d < 0) == (x < base) { // skip the wrapped ones
					probe.Vecs[0].Append(types.NewInt64(x))
				}
			}
		}
		for _, x := range []int64{math.MinInt64, math.MaxInt64, 0, -1, 1} {
			probe.Vecs[0].Append(types.NewInt64(x))
		}
		probe.SetRows(probe.Vecs[0].Len())
		want, _ := HashJoin(probe.Rel(), build.Rel(), []int{0}, []int{0})
		if len(want.Tuples) < n {
			t.Fatalf("range at %d: oracle gives %d rows, want at least %d", lo, len(want.Tuples), n)
		}
		pipe := NewJoinPipe([]ProbeStage{{Table: tbl, Key: ColRef{Stage: -1, Col: 0}}}, allRefs(1, 1))
		rng := rand.New(rand.NewSource(lo))
		keep := make([]bool, probe.NumRows())
		for i := range keep {
			keep[i] = true
		}
		tuplesEqual(t, pipeRows(pipe, probeBatches(rng, probe.Rel(), keep, 0)), want.Tuples, "dense extremes")
		// The same keys boxed, as a NULL-bearing probe column carries them.
		boxed := probe.Rel()
		boxed.Tuples = append(boxed.Tuples, []types.Value{types.Null()})
		bc := ColRelFromRel(boxed)
		var m matches
		tbl.probe(canonKeyCol(&bc.Vecs[0], bc.NumRows()), &m)
		if len(m.pos) != len(want.Tuples) {
			t.Errorf("range at %d: boxed probe found %d matches, want %d", lo, len(m.pos), len(want.Tuples))
		}
	}
	// Keys at both extremes span 2^64 − 1 values: max − min + 1 wraps to 0
	// in int64, and the table must still be hashed.
	both := NewColRel([]string{"k"})
	for _, x := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
		both.Vecs[0].Append(types.NewInt64(x))
	}
	both.SetRows(4)
	tbl := BuildJoinTable(&both, 0)
	if tbl.dense {
		t.Fatal("keys at both extremes laid out dense")
	}
	var m matches
	tbl.probe(keyCol{ints: []int64{math.MaxInt64, 1, math.MinInt64, 0}}, &m)
	if !slices.Equal(m.pos, []int32{0, 2, 3}) || !slices.Equal(m.row, []int32{3, 0, 2}) {
		t.Errorf("extremes probe = %v -> %v, want [0 2 3] -> [3 0 2]", m.pos, m.row)
	}
}

// TestJoinTableHashQuality probes tables built over the key shapes the
// workloads produce — dense ids, CH order ids (district*3520+order),
// multiples of 256, negative keys — with present and absent keys, and
// bounds the entries a probe visits by 1.5 x (matches per probe + load
// factor). A hash that takes its slot from weak bits fails this by an
// order of magnitude on the strided shapes. The shapes dense enough for
// direct slots (dense, order-ids, dup-x4) are laid out dense: an absent key
// there visits no entry at all, and the table has no Bloom bits. The
// hashed shapes' Bloom filters must reject most absent keys.
func TestJoinTableHashQuality(t *testing.T) {
	shapes := map[string]struct {
		key   func(i int) int64
		dense bool
	}{
		"dense":     {func(i int) int64 { return int64(i) }, true},
		"order-ids": {func(i int) int64 { return int64(i/2520)*3520 + int64(i%2520) }, true},
		"times-256": {func(i int) int64 { return int64(i) * 256 }, false},
		"negative":  {func(i int) int64 { return -int64(i) * 8 }, false},
		"dup-x4":    {func(i int) int64 { return int64(i / 4) }, true},
	}
	const n = 100000
	for name, shape := range shapes {
		key := shape.key
		build := NewColRel([]string{"k"})
		present := make(map[int64]bool, n)
		for i := 0; i < n; i++ {
			build.Vecs[0].Append(types.NewInt64(key(i)))
			present[key(i)] = true
		}
		build.SetRows(n)
		tbl := buildJoinTable(&build, 0, false)
		if tbl.dense != shape.dense {
			t.Fatalf("%s: dense = %v, want %v", name, tbl.dense, shape.dense)
		}
		load := float64(n) / float64(len(tbl.offs)-1)

		probe := make([]int64, 0, 2*n)
		for i := 0; i < n; i++ {
			probe = append(probe, key(i), key(i)+1) // present, then mostly absent
		}
		var m matches
		tbl.probe(keyCol{ints: probe}, &m)
		perProbe := float64(m.steps) / float64(m.probed)
		bound := 1.5 * (float64(len(m.pos))/float64(m.probed) + load)
		if perProbe > bound {
			t.Errorf("%s: %.2f entries visited per probe, bound %.2f (load factor %.2f)", name, perProbe, bound, load)
		}
		f := BuildJoinTable(&build, 0).Filter()
		if shape.dense {
			// Absent keys inside the range and beyond it, none a match.
			absent := make([]int64, 0, n)
			for x := tbl.lo - 50; x <= tbl.hi+50 && len(absent) < n; x += 3 {
				if !present[x] {
					absent = append(absent, x)
				}
			}
			m.reset()
			tbl.probe(keyCol{ints: absent}, &m)
			if m.steps != 0 || len(m.pos) != 0 {
				t.Errorf("%s: %d absent keys visited %d entries, %d matches", name, len(absent), m.steps, len(m.pos))
			}
			if f.bits != nil {
				t.Errorf("%s: dense table carries Bloom bits", name)
			}
			continue
		}
		// Bloom words are picked by other bits of the same hash: absent
		// keys must mostly be rejected, present ones always pass.
		passed := 0
		for i := 0; i < n; i++ {
			if !f.testHash(hashKey(key(i))) {
				t.Fatalf("%s: Bloom filter rejects build key %d", name, key(i))
			}
			if f.testHash(hashKey(key(n + i + 7))) {
				passed++
			}
		}
		if passed > n/10 {
			t.Errorf("%s: Bloom filter passes %d of %d absent keys", name, passed, n)
		}
	}
}

// TestJoinTimersSplitBuildFromProbe joins a one-row build side against a
// large probe side: nearly all the time is probing, and the counters must
// say so (BuildNanos used to absorb the probe).
func TestJoinTimersSplitBuildFromProbe(t *testing.T) {
	probe := NewColRel([]string{"k"})
	for i := 0; i < 300000; i++ {
		probe.Vecs[0].Append(types.NewInt64(int64(i % 3)))
	}
	probe.SetRows(300000)
	build := NewColRel([]string{"k"})
	build.Vecs[0].Append(types.NewInt64(1))
	build.SetRows(1)
	before := ReadJoinStats()
	if _, _, err := BatchHashJoin(&probe, &build, 0, 0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	d := ReadJoinStats()
	buildNs, probeNs := d.BuildNanos-before.BuildNanos, d.ProbeNanos-before.ProbeNanos
	if buildNs <= 0 || probeNs <= 0 || buildNs >= probeNs {
		t.Errorf("one-row build %d ns, 300k-row probe %d ns: build must be the small part", buildNs, probeNs)
	}
}
