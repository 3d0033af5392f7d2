package exec

// Tests for the shared join table and the pipelined probe: the pipeline
// must produce exactly the rows BatchHashJoin and the row HashJoin produce
// (the row joins are the oracle), whatever the key kinds, encodings, batch
// boundaries and selections; one table must serve many concurrent probers;
// and the hash must keep buckets short on the key shapes the workloads have.

import (
	"math/rand"
	"reflect"
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
// dictionary-encoded, so probes see every vector shape a store emits.
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
		switch {
		case ints && rng.Intn(2) == 0:
			base := r.Tuples[lo][key].I
			for _, t := range r.Tuples[lo:hi] {
				if t[key].I < base {
					base = t[key].I
				}
			}
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
// (duplicates, absent keys) and NULLs occur.
func keyGen(rng *rand.Rand, kind int) types.Value {
	if rng.Intn(10) == 0 {
		return types.Null()
	}
	k := rng.Intn(6)
	switch kind {
	case 0:
		return types.NewInt64(int64(k) - 2) // negative keys too
	case 1:
		return types.NewFloat64(float64(k) - 2)
	case 2:
		return types.NewString([]string{"a", "bb", "ccc", "dd", "e", ""}[k])
	}
	if rng.Intn(3) == 0 {
		return types.NewFloat64(float64(k) - 1.5)
	}
	return types.NewFloat64(float64(k) - 2)
}

// TestJoinPipeDifferential probes randomized relations through a one-stage
// pipeline and requires the rows of BatchHashJoin and of the row HashJoin,
// in the same order, for every pairing of probe and build key kinds.
func TestJoinPipeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 240; trial++ {
		pk, bk := trial%4, trial/4%4
		mk := func(n, kind int, label string) (Rel, []bool) {
			r := Rel{Cols: []string{"k", label}}
			keep := make([]bool, n)
			for i := range keep {
				r.Tuples = append(r.Tuples, []types.Value{keyGen(rng, kind), types.NewInt64(int64(i))})
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

		kept := keptRows(probe, keep)
		want, _ := HashJoin(kept, build, []int{0}, []int{0})
		kc, bc := ColRelFromRel(kept), ColRelFromRel(build)
		viaBatch, _, err := BatchHashJoin(&kc, &bc, 0, 0, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tuplesEqual(t, viaBatch.Rel().Tuples, want.Tuples, "BatchHashJoin")

		for _, bloom := range []bool{false, true} {
			tbl := buildJoinTable(&bc, 0, bloom)
			pipe := NewJoinPipe([]ProbeStage{{Table: tbl, Key: ColRef{Stage: -1, Col: 0}}}, allRefs(2, 2))
			got := pipeRows(pipe, probeBatches(rng, probe, keep, 0))
			tuplesEqual(t, got, want.Tuples, "pipeline")
		}
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
		mk := func(n int, cols ...string) Rel {
			r := Rel{Cols: cols}
			for i := 0; i < n; i++ {
				row := []types.Value{keyGen(rng, 0), keyGen(rng, trial%2), types.NewInt64(int64(i))}
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
// float, a typed column against a NULL-bearing (hence boxed) one, NULL
// against NULL — and a boxed key with no canonical int64 (fractional float,
// string, NULL) never matches a typed table.
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
	for _, tc := range []struct {
		name         string
		probe, build ColRel
		want         int
	}{
		{"typed int x typed float", typedInts, typedFloats, 3},
		{"typed x boxed ints", typedInts, boxedInts, 2},
		{"boxed ints x typed", boxedInts, typedInts, 2},
		{"boxed floats x typed ints", boxedFloats, typedInts, 2},
		{"typed ints x boxed floats", typedInts, boxedFloats, 2},
		{"boxed x boxed: NULL meets NULL", boxedInts, boxedFloats, 3},
		{"non-canonical x typed", fractional, typedInts, 0},
		{"typed x non-canonical", typedInts, fractional, 0},
		{"non-canonical x boxed floats", fractional, boxedFloats, 2},
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
				if !tbl.Filter().TestValue(tc.build.Vecs[0].Value(r)) {
					t.Errorf("%s: filter rejects build key %v", tc.name, tc.build.Vecs[0].Value(r))
				}
			}
		}
	}
}

// TestJoinTableHashQuality probes tables built over the key shapes the
// workloads produce — dense ids, CH order ids (district*3520+order),
// multiples of 256, negative keys — with present and absent keys, and
// bounds the bucket entries a probe visits by 1.5 x (matches per probe +
// load factor). A hash that takes its slot from weak bits fails this by an
// order of magnitude on the strided shapes.
func TestJoinTableHashQuality(t *testing.T) {
	shapes := map[string]func(i int) int64{
		"dense":     func(i int) int64 { return int64(i) },
		"order-ids": func(i int) int64 { return int64(i/2520)*3520 + int64(i%2520) },
		"times-256": func(i int) int64 { return int64(i) * 256 },
		"negative":  func(i int) int64 { return -int64(i) * 8 },
		"dup-x4":    func(i int) int64 { return int64(i / 4) },
	}
	const n = 100000
	for name, key := range shapes {
		build := NewColRel([]string{"k"})
		for i := 0; i < n; i++ {
			build.Vecs[0].Append(types.NewInt64(key(i)))
		}
		build.SetRows(n)
		tbl := buildJoinTable(&build, 0, false)
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
		// Bloom words are picked by other bits of the same hash: absent
		// keys must mostly be rejected, present ones always pass.
		f := BuildJoinTable(&build, 0).Filter()
		passed := 0
		for i := 0; i < n; i++ {
			if !f.testHash(hashKey(key(i))) {
				t.Fatalf("%s: Bloom filter rejects build key %d", name, key(i))
			}
			if f.testHash(hashKey(key(n + i + 7))) {
				passed++
			}
		}
		if name != "dup-x4" && passed > n/10 {
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
