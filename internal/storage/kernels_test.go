package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"proteus/internal/types"
)

// FuzzFilterVec holds every typed filter kernel to filterBoxed, the
// row-at-a-time comparison through types.Value: plain int64, Time, Bool,
// float (NaN included) and string vectors, frame-of-reference,
// dictionary and run-length vectors, under every operator, without and
// with an input selection, appending after a non-empty dst. The constants
// cover the edges of each code space: the int64 extremes, a FoR constant
// below the base, at code MaxUint32 and beyond the code range, and a
// dictionary constant that is absent (below, between and above the
// entries), first or last. seed drives the values; n is the row count;
// spread bounds the plain integers; base is the FoR frame.
func FuzzFilterVec(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n uint16, spread uint64, base int64) {
		rows := int(n % 700)
		rng := rand.New(rand.NewSource(seed))
		base >>= 1 // room for base + 2^32 + 1 either side
		pick := func(xs ...int64) int64 { return xs[rng.Intn(len(xs))] }
		ints := func() []int64 {
			xs := make([]int64, rows)
			for i := range xs {
				r := int64(rng.Uint64())
				if spread > 0 {
					r = int64(rng.Uint64()%(2*spread+1)) - int64(spread)
				}
				xs[i] = pick(math.MinInt64, math.MaxInt64, 0, -1, r, r, r, r)
			}
			return xs
		}
		// intConsts are the int-family constants tried against a vector of
		// kind k holding xs: the extremes, row values and their neighbours,
		// a fractional float, NaN and NULL.
		intConsts := func(k types.Kind, xs []int64) []types.Value {
			cs := []types.Value{{K: k, I: math.MinInt64}, {K: k, I: math.MaxInt64}, {K: k, I: 0},
				types.NewInt64(1), types.NewFloat64(0.5), types.NewFloat64(math.NaN()), types.Null()}
			for range 3 {
				if len(xs) > 0 {
					x := xs[rng.Intn(len(xs))]
					cs = append(cs, types.Value{K: k, I: x}, types.Value{K: k, I: x - 1}, types.Value{K: k, I: x + 1})
				}
			}
			return cs
		}

		type vecCase struct {
			name   string
			v      Vec
			consts []types.Value
		}
		var cases []vecCase

		xs := ints()
		cases = append(cases, vecCase{"int64", ViewVec(types.KindInt64, xs, nil, nil, nil), intConsts(types.KindInt64, xs)})
		ts := ints()
		cases = append(cases, vecCase{"time", ViewVec(types.KindTime, ts, nil, nil, nil), intConsts(types.KindTime, ts)})
		bs := make([]int64, rows)
		for i := range bs {
			bs[i] = int64(rng.Intn(2))
		}
		cases = append(cases, vecCase{"bool", ViewVec(types.KindBool, bs, nil, nil, nil),
			[]types.Value{types.NewBool(false), types.NewBool(true), types.NewInt64(-1), types.NewInt64(2)}})

		fs := make([]float64, rows)
		for i := range fs {
			fs[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1.5, float64(rng.Intn(9) - 4)}[rng.Intn(6)]
		}
		cases = append(cases, vecCase{"float64", ViewVec(types.KindFloat64, nil, fs, nil, nil),
			[]types.Value{types.NewFloat64(math.NaN()), types.NewFloat64(0), types.NewFloat64(-1.5),
				types.NewFloat64(math.Inf(1)), types.NewInt64(2), types.NewInt64(math.MinInt64)}})

		words := make([]string, 1+rng.Intn(8))
		for i := range words {
			words[i] = fmt.Sprintf("k%03d", rng.Intn(50))
		}
		sort.Strings(words)
		dict := slices.Compact(words)
		strs := make([]string, rows)
		codes := make([]uint32, rows)
		for i := range codes {
			codes[i] = uint32(rng.Intn(len(dict)))
			strs[i] = dict[codes[i]]
		}
		dictConsts := []types.Value{types.NewString(""), types.NewString(dict[0]), types.NewString(dict[len(dict)-1]),
			types.NewString(dict[rng.Intn(len(dict))] + "a"), types.NewString("z"), types.NewInt64(3)}
		cases = append(cases, vecCase{"dict", DictVec(codes, dict), dictConsts})
		cases = append(cases, vecCase{"string", ViewVec(types.KindString, nil, nil, strs, nil), dictConsts})

		fcodes := make([]uint32, rows)
		for i := range fcodes {
			fcodes[i] = []uint32{0, 1, math.MaxUint32, math.MaxUint32 - 1, rng.Uint32(), uint32(rng.Intn(16))}[rng.Intn(6)]
		}
		forConsts := []types.Value{types.NewInt64(base - 1), types.NewInt64(math.MinInt64), types.NewInt64(base),
			types.NewInt64(base + math.MaxUint32), types.NewInt64(base + math.MaxUint32 + 1), types.NewInt64(math.MaxInt64),
			types.NewTimeMicros(base + 1), types.NewFloat64(float64(base)), types.Null()}
		if rows > 0 {
			forConsts = append(forConsts, types.NewInt64(base+int64(fcodes[rng.Intn(rows)])))
		}
		cases = append(cases, vecCase{"for", FoRVec(types.KindInt64, base, fcodes), forConsts})

		var runVals []int64
		var runEnds []uint32
		for end := 0; end < rows; {
			end = min(rows, end+1+rng.Intn(20))
			runVals = append(runVals, int64(rng.Intn(7)-3))
			runEnds = append(runEnds, uint32(end))
		}
		cases = append(cases, vecCase{"runs", RunsVec(types.KindInt64, runVals, nil, nil, runEnds), intConsts(types.KindInt64, runVals)})

		sels := [][]int32{nil, {}}
		var sel []int32
		for i := range rows {
			if rng.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		sels = append(sels, sel)
		prefix := []int32{-7}
		for _, c := range cases {
			for _, val := range c.consts {
				for op := CmpEq; op <= CmpGe+1; op++ { // CmpGe+1: an unknown operator keeps nothing
					for _, s := range sels {
						got := FilterVec(slices.Clip(prefix), s, rows, &c.v, op, val)
						want := filterBoxed(slices.Clip(prefix), s, rows, &c.v, op, val)
						if !slices.Equal(got, want) {
							t.Fatalf("%s %v %v (sel %v): got %v, want %v", c.name, op, val, s != nil, got, want)
						}
					}
				}
			}
		}
	})
}
