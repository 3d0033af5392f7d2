package colstore

// Tests for the dictionary and frame-of-reference encodings: selection by
// buildCol, serialize round-trips, point reads through the disk store's
// per-encoding index, and a randomized differential proving encoded scans
// return exactly what the decoded (encodings-off) path returns.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"proteus/internal/disksim"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

func TestChooseEncoding(t *testing.T) {
	strs := func(n int, distinct int) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = types.NewString(fmt.Sprintf("value-%04d", i%distinct))
		}
		return out
	}
	ints := func(n int, base, rng int64) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = types.NewInt64(base + int64(i)%rng)
		}
		return out
	}
	cases := []struct {
		name string
		kind types.Kind
		vals []types.Value
		want colEncoding
	}{
		{"low-card strings pick dict", types.KindString, strs(512, 3), encDict},
		{"narrow ints pick FoR", types.KindInt64, ints(512, 1_000_000, 100), encFoR},
		{"long runs pick RLE", types.KindInt64, func() []types.Value {
			out := make([]types.Value, 512)
			for i := range out {
				out[i] = types.NewInt64(int64(i / 128))
			}
			return out
		}(), encRLE},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := buildCol(tc.kind, vecOf(tc.kind, tc.vals), true)
			if c.enc != tc.want {
				t.Errorf("enc = %v, want %v", c.enc, tc.want)
			}
			for p, v := range tc.vals {
				if !types.Equal(c.get(p), v) {
					t.Fatalf("pos %d: got %v, want %v", p, c.get(p), v)
				}
			}
			if c.bytes() >= len(tc.vals)*12 {
				t.Errorf("encoded column not smaller than plain: %d bytes for %d values", c.bytes(), len(tc.vals))
			}
		})
	}
	// NULLs disqualify the code encodings: a NULL has no slot in code order.
	withNull := strs(256, 3)
	withNull[100] = types.Null()
	if c := buildCol(types.KindString, vecOf(types.KindString, withNull), true); c.enc == encDict {
		t.Error("NULL-bearing column must not pick dict")
	}
	wideInts := []types.Value{types.NewInt64(0), types.NewInt64(1 << 40)}
	if c := buildCol(types.KindInt64, vecOf(types.KindInt64, wideInts), true); c.enc == encFoR {
		t.Error("range beyond uint32 must not pick FoR")
	}
}

// TestEncodedSerializeRoundTrip proves serialize/deserializeCol preserve
// the encoding and every value for all four encodings.
func TestEncodedSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		kind types.Kind
		vals []types.Value
		want colEncoding
	}{
		{"dict", types.KindString, nil, encDict},
		{"for", types.KindInt64, nil, encFoR},
		{"rle", types.KindInt64, nil, encRLE},
		{"plain", types.KindFloat64, nil, encPlain},
	}
	cases[0].vals = make([]types.Value, 300)
	for i := range cases[0].vals {
		cases[0].vals[i] = types.NewString(fmt.Sprintf("s-%d", rng.Intn(5)))
	}
	cases[1].vals = make([]types.Value, 300)
	for i := range cases[1].vals {
		cases[1].vals[i] = types.NewInt64(5_000_000 + int64(rng.Intn(900)))
	}
	cases[2].vals = make([]types.Value, 300)
	for i := range cases[2].vals {
		cases[2].vals[i] = types.NewInt64(int64(i / 100))
	}
	cases[3].vals = make([]types.Value, 300)
	for i := range cases[3].vals {
		cases[3].vals[i] = types.NewFloat64(rng.Float64())
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compress := tc.want != encPlain
			c := buildCol(tc.kind, vecOf(tc.kind, tc.vals), compress)
			if c.enc != tc.want {
				t.Fatalf("built enc = %v, want %v", c.enc, tc.want)
			}
			got := deserializeCol(c.serialize())
			if got.enc != tc.want {
				t.Errorf("round-trip enc = %v, want %v", got.enc, tc.want)
			}
			if got.n() != len(tc.vals) {
				t.Fatalf("n = %d, want %d", got.n(), len(tc.vals))
			}
			for p, v := range tc.vals {
				if !types.Equal(got.get(p), v) {
					t.Fatalf("pos %d: got %v, want %v", p, got.get(p), v)
				}
			}
		})
	}
}

// encTestRows builds rows whose columns attract all encodings under a
// compressed layout: col 0 narrow ints (FoR), col 1 low-cardinality
// strings (dict), col 2 random floats (plain).
func encTestRows(rng *rand.Rand, n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(10_000 + int64(rng.Intn(50))),
			types.NewString(fmt.Sprintf("cat-%d", rng.Intn(6))),
			types.NewFloat64(rng.Float64()),
		}}
	}
	return rows
}

// TestEncodedScanDifferential loads identical data into compressed
// (encoded) and uncompressed (plain) stores and requires every scan —
// string equality and inequality, int ranges, projections — to return
// identical rows in identical order, on both the memory and disk stores.
func TestEncodedScanDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rows := encTestRows(rng, 2000)
	preds := []storage.Pred{
		nil,
		{{Col: 1, Op: storage.CmpEq, Val: types.NewString("cat-3")}},
		{{Col: 1, Op: storage.CmpNe, Val: types.NewString("cat-3")}},
		{{Col: 1, Op: storage.CmpGt, Val: types.NewString("cat-1")}},
		{{Col: 1, Op: storage.CmpEq, Val: types.NewString("absent")}},
		{{Col: 0, Op: storage.CmpLt, Val: types.NewInt64(10_020)}},
		{{Col: 0, Op: storage.CmpGe, Val: types.NewInt64(10_045)}},
		{{Col: 0, Op: storage.CmpEq, Val: types.NewInt64(9)}}, // below base
		{{Col: 0, Op: storage.CmpLe, Val: types.NewInt64(1 << 40)}},
		{{Col: 0, Op: storage.CmpGt, Val: types.NewInt64(10_010)},
			{Col: 1, Op: storage.CmpEq, Val: types.NewString("cat-0")}},
	}
	scan := func(s storage.Store, pred storage.Pred) []schema.Row {
		return scanAll(s, []schema.ColID{0, 1, 2}, pred, storage.Latest, 0)
	}
	mkStores := func(compress bool) []storage.Store {
		stores := []storage.Store{
			NewMem(testKinds, storage.NoSort, compress),
			NewMem(testKinds, 1, compress),
			NewDisk(testKinds, disksim.New(disksim.Config{}), storage.NoSort, compress),
		}
		for _, s := range stores {
			if err := load(s, testKinds, rows, 1); err != nil {
				t.Fatal(err)
			}
		}
		return stores
	}
	plainStores, encStores := mkStores(false), mkStores(true)
	for si := range encStores {
		if plainStores[si].Stats().EncodedBytes != 0 {
			t.Errorf("store %d: uncompressed store reports encoded bytes", si)
		}
		if encStores[si].Stats().EncodedBytes == 0 {
			t.Errorf("store %d: no encoded bytes reported", si)
		}
		for pi, pred := range preds {
			got := scan(encStores[si], pred)
			want := scan(plainStores[si], pred)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("store %d pred %d: encoded scan returned %d rows, decoded %d",
					si, pi, len(got), len(want))
			}
		}
		// Point reads exercise the per-encoding disk index.
		for _, id := range []schema.RowID{0, 777, 1999} {
			got, ok1 := encStores[si].Get(id, []schema.ColID{0, 1, 2}, storage.Latest)
			want, ok2 := plainStores[si].Get(id, []schema.ColID{0, 1, 2}, storage.Latest)
			if ok1 != ok2 || !reflect.DeepEqual(got, want) {
				t.Fatalf("store %d row %d: encoded get %v/%v, decoded %v/%v", si, id, got, ok1, want, ok2)
			}
		}
	}
}

// FuzzColRoundTrip fuzzes the serialize round-trip across encodings and
// kinds, fixed-width plain blocks with their NULL bitmaps included: any
// generated column must deserialize to identical values with the same
// encoding choice.
func FuzzColRoundTrip(f *testing.F) {
	f.Add(int64(1), 50, 3, true)
	f.Add(int64(2), 200, 70, true)
	f.Add(int64(3), 10, 1, false)
	f.Add(int64(4), 500, 10000, true)
	f.Fuzz(func(t *testing.T, seed int64, n, card int, compress bool) {
		if n < 0 || n > 2000 || card < 1 || card > 1<<20 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		kinds := []types.Kind{types.KindInt64, types.KindString, types.KindFloat64, types.KindTime, types.KindBool}
		for _, kind := range kinds {
			vals := make([]types.Value, n)
			for i := range vals {
				if rng.Intn(20) == 0 {
					vals[i] = types.Null()
					continue
				}
				switch kind {
				case types.KindInt64:
					vals[i] = types.NewInt64(rng.Int63n(int64(card)) - int64(card)/2)
				case types.KindString:
					vals[i] = types.NewString(fmt.Sprintf("k%d", rng.Intn(card)))
				case types.KindTime:
					vals[i] = types.NewTimeMicros(rng.Int63n(int64(card)))
				case types.KindBool:
					vals[i] = types.NewBool(rng.Intn(2) == 0)
				default:
					vals[i] = types.NewFloat64(float64(rng.Intn(card)))
				}
			}
			c := buildCol(kind, vecOf(kind, vals), compress)
			got := deserializeCol(c.serialize())
			if got.enc != c.enc || got.n() != n {
				t.Fatalf("kind %v: enc %v->%v n %d->%d", kind, c.enc, got.enc, n, got.n())
			}
			for p := 0; p < n; p++ {
				if !types.Equal(got.get(p), vals[p]) {
					t.Fatalf("kind %v pos %d: got %v, want %v", kind, p, got.get(p), vals[p])
				}
			}
		}
	})
}
