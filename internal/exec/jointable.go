package exec

import (
	"math"
	"math/bits"
	"time"

	"proteus/internal/storage"
	"proteus/internal/types"
)

// JoinTable is the build side of a hash join: the build relation's
// canonical keys laid out slot by slot (CSR: slot s owns entries
// [offs[s], offs[s+1]), ascending in build row within a slot, so probing in
// order emits matches in the row HashJoin's order), the build relation's
// columns as payload, and the runtime filter derived from the same key pass.
// It is immutable once built: any number of goroutines may probe it.
//
// Two slot functions share that layout. A typed key column whose range
// max − min + 1 is at most four times its row count is dense: slot =
// key − min, so every entry of a slot holds the probe's key and a probe is
// a bounds check and one offs load — no hash, no Bloom test, no key
// compare. At that density the direct offs array is no larger than a
// hashed table's offs, keys and Bloom bits together. Every other key
// column is hashed.
//
// Hash contract. Every hashed key goes through hashKey/hashValue: keys that
// compare types.Equal under the types.Value.Hash criterion (int-family
// values and integral floats canonicalize to one int64) hash alike, and
// the hash is a full-avalanche finalizer, so any bit range of it
// is usable: the table slot is the multiply-high of the hash by the slot
// count (top bits), the Bloom filter takes bits 0..31, grace partitioning
// bits 0..23. A hashed table has twice as many slots as build keys (load
// factor 0.5), so a probe visits its matches plus on average half an entry.
//
// A NULL key matches nothing, as in SQL: build rows with a NULL key are
// left out of the table and probe rows with one are skipped.
type JoinTable struct {
	cols   ColRel
	offs   []int32       // len slots+1
	rows   []int32       // entry -> build row
	ints   []int64       // entry -> typed key (hashed typed tables)
	vals   []types.Value // entry -> boxed key (boxed tables)
	hashes []uint64      // entry -> key hash (boxed tables only)
	dense  bool          // slot = key - lo for keys in [lo, hi]
	lo, hi int64
	filter RuntimeFilter

	buildNanos int64
}

// mix64 is a bijective full-avalanche finalizer (two xor-shift-multiply
// rounds): sequential, strided and low-entropy keys spread over every bit.
func mix64(x uint64) uint64 {
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return x
}

// hashKey hashes a canonical typed key.
func hashKey(x int64) uint64 { return mix64(uint64(x)) }

// canonInt reports the canonical int64 of a value under the
// types.Value.Hash criterion: int-family kinds and integral in-range floats.
func canonInt(v types.Value) (int64, bool) {
	switch v.K {
	case types.KindInt64, types.KindTime, types.KindBool:
		return v.I, true
	case types.KindFloat64:
		if f := v.F; f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			return int64(f), true
		}
	}
	return 0, false
}

// hashValue hashes a boxed key so that it meets hashKey whenever the value
// has a canonical int64; NULLs, strings and fractional floats mix their
// types.Value.Hash.
func hashValue(v types.Value) uint64 {
	if x, ok := canonInt(v); ok {
		return hashKey(x)
	}
	return mix64(v.Hash())
}

// keyCol is a join key column in canonical form: ints is the typed path
// (null-free int-family values, also used for integral floats — equality
// and hashing match types.Equal / types.Value.Hash exactly within that
// domain); vals is the boxed path for everything else, including NULLs.
type keyCol struct {
	ints []int64
	vals []types.Value
}

// keyScratch holds the buffers canonKeys reuses across batches.
type keyScratch struct {
	ints []int64
	vals []types.Value
}

// canonKeys canonicalizes n rows of a key vector: the rows listed in idx,
// or rows [0,n) when idx is nil. Null-free plain int-family vectors taken
// whole are returned as a view; everything else lands in s's buffers, which
// stay valid until the next call with the same scratch.
func canonKeys(v *storage.Vec, idx []int32, n int, s *keyScratch) keyCol {
	if n == 0 {
		return keyCol{}
	}
	if v.Null == nil {
		switch {
		case v.Enc == storage.EncNone && (v.Kind == types.KindInt64 || v.Kind == types.KindTime || v.Kind == types.KindBool):
			if idx == nil {
				return keyCol{ints: v.I64[:n]}
			}
			ints := s.intBuf(n)
			for i, r := range idx {
				ints[i] = v.I64[r]
			}
			return keyCol{ints: ints}
		case v.Enc == storage.EncFoR:
			ints := s.intBuf(n)
			if idx == nil {
				for i, c := range v.Codes[:n] {
					ints[i] = v.Base + int64(c)
				}
			} else {
				for i, r := range idx {
					ints[i] = v.Base + int64(v.Codes[r])
				}
			}
			return keyCol{ints: ints}
		case v.Enc == storage.EncNone && v.Kind == types.KindFloat64:
			// Integral floats canonicalize to int64 under the same criterion
			// types.Value.Hash uses, so typed hashing/equality stay exact.
			ints := s.intBuf(n)
			integral := true
			for i := 0; i < n && integral; i++ {
				r := i
				if idx != nil {
					r = int(idx[i])
				}
				ints[i], integral = canonInt(types.Value{K: types.KindFloat64, F: v.F64[r]})
			}
			if integral {
				return keyCol{ints: ints}
			}
		}
	}
	if cap(s.vals) < n {
		s.vals = make([]types.Value, n)
	}
	vals := s.vals[:n]
	for i := range vals {
		r := i
		if idx != nil {
			r = int(idx[i])
		}
		vals[i] = v.Value(r)
	}
	return keyCol{vals: vals}
}

func (s *keyScratch) intBuf(n int) []int64 {
	if cap(s.ints) < n {
		s.ints = make([]int64, n)
	}
	return s.ints[:n]
}

// canonKeyCol canonicalizes a whole key column into owned (or borrowed
// from v) arrays.
func canonKeyCol(v *storage.Vec, n int) keyCol {
	return canonKeys(v, nil, n, &keyScratch{})
}

func (k keyCol) n() int {
	if k.ints != nil {
		return len(k.ints)
	}
	return len(k.vals)
}

// null reports whether key i is NULL (only a boxed column holds one).
func (k keyCol) null(i int) bool { return k.vals != nil && k.vals[i].IsNull() }

func (k keyCol) hash(i int) uint64 {
	if k.ints != nil {
		return hashKey(k.ints[i])
	}
	return hashValue(k.vals[i])
}

func (k keyCol) hashes() []uint64 {
	hs := make([]uint64, k.n())
	for i := range hs {
		hs[i] = k.hash(i)
	}
	return hs
}

// BuildJoinTable lays key column key of the build relation out into a
// table whose payload is the relation's columns. A hashed table's runtime
// filter carries Bloom bits besides the min-max bounds (up to
// maxBloomBuildRows build rows), and probes consult them before touching a
// slot; a dense table's filter keeps only the bounds.
func BuildJoinTable(build *ColRel, key int) *JoinTable {
	start := time.Now()
	kc := canonKeyCol(&build.Vecs[key], build.NumRows())
	t, hs := newJoinTable(kc)
	t.cols = *build
	t.filter.fill(kc, hs, build.Vecs[key].Kind)
	t.buildNanos = time.Since(start).Nanoseconds()
	return t
}

// newJoinTable lays canonical keys out slot by slot, leaving NULL keys out,
// and returns the key hashes a hashed table was laid out by (nil for a
// dense one).
func newJoinTable(kc keyCol) (*JoinTable, []uint64) {
	t := &JoinTable{}
	n := kc.n()
	if kc.vals != nil {
		for i := range kc.vals {
			if kc.null(i) {
				n--
			}
		}
	}
	var hs []uint64
	var slots uint64
	if t.denseRange(kc.ints) {
		slots = uint64(t.hi) - uint64(t.lo) + 1
	} else {
		hs = kc.hashes()
		slots = max(uint64(2*n), 2)
	}
	slot := func(i int) (s uint64) {
		if t.dense {
			s, _ = t.denseSlot(kc.ints[i])
		} else {
			s, _ = bits.Mul64(hs[i], slots)
		}
		return s
	}
	// Counting sort by slot, stable in build row. Slot s counts into
	// offs[s+2], the prefix sum leaves s's start in offs[s+1], and the
	// scatter advances it to s's end — the start of s+1.
	buf := make([]int32, slots+2+uint64(n)) // offs, then rows: one allocation
	offs := buf[: slots+2 : slots+2]
	for i := range kc.n() {
		if !kc.null(i) {
			offs[slot(i)+2]++
		}
	}
	for s := uint64(2); s < slots+2; s++ {
		offs[s] += offs[s-1]
	}
	t.offs, t.rows = offs[:slots+1], buf[slots+2:]
	switch {
	case t.dense:
	case kc.ints != nil:
		t.ints = make([]int64, n)
	default:
		t.vals = make([]types.Value, n)
		t.hashes = make([]uint64, n)
	}
	for i := range kc.n() {
		if kc.null(i) {
			continue
		}
		s := slot(i)
		e := offs[s+1]
		offs[s+1]++
		t.rows[e] = int32(i)
		if t.ints != nil {
			t.ints[e] = kc.ints[i]
		} else if t.vals != nil {
			t.vals[e] = kc.vals[i]
			t.hashes[e] = hs[i]
		}
	}
	return t, hs
}

// denseRange reports whether typed keys ints span at most four slots per
// key, and if so makes t dense over their range. The span is taken in
// uint64, which holds max − min exactly for every pair of int64s.
func (t *JoinTable) denseRange(ints []int64) bool {
	if len(ints) == 0 {
		return false
	}
	lo, hi := ints[0], ints[0]
	for _, x := range ints[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	if uint64(hi)-uint64(lo) >= 4*uint64(len(ints)) {
		return false
	}
	t.dense, t.lo, t.hi = true, lo, hi
	return true
}

// denseSlot returns a dense table's slot for key x; ok is false when x lies
// outside the build keys' range. x is bounds-checked before the
// subtraction, which would wrap at the int64 extremes.
func (t *JoinTable) denseSlot(x int64) (s uint64, ok bool) {
	if x < t.lo || x > t.hi {
		return 0, false
	}
	return uint64(x) - uint64(t.lo), true
}

// Rows reports the build cardinality.
func (t *JoinTable) Rows() int { return len(t.rows) }

// Cols returns the build relation the table indexes (read-only).
func (t *JoinTable) Cols() *ColRel { return &t.cols }

// Filter returns the runtime filter derived from the build keys.
func (t *JoinTable) Filter() *RuntimeFilter { return &t.filter }

// matches accumulates one probe call's output: for every match the position
// of the probing row in the probed list and the matching build row.
type matches struct {
	pos, row []int32

	probed, steps            int64 // rows that reached a bucket; entries visited
	bloomTested, bloomPassed int64
}

func (m *matches) reset() {
	m.pos, m.row = m.pos[:0], m.row[:0]
	m.probed, m.steps, m.bloomTested, m.bloomPassed = 0, 0, 0, 0
}

// probe looks every key of kc up, appending matches in probe order.
func (t *JoinTable) probe(kc keyCol, m *matches) {
	n := kc.n()
	if n == 0 || len(t.rows) == 0 {
		return
	}
	bloom := t.filter.bits != nil
	if bloom {
		m.bloomTested += int64(n)
	}
	offs, rows := t.offs, t.rows
	switch {
	case t.dense && kc.ints != nil:
		for i, x := range kc.ints {
			s, ok := t.denseSlot(x)
			if !ok {
				continue
			}
			m.probed++
			lo, hi := offs[s], offs[s+1]
			m.steps += int64(hi - lo)
			for e := lo; e < hi; e++ {
				m.pos = append(m.pos, int32(i))
				m.row = append(m.row, rows[e])
			}
		}
	case t.ints != nil && kc.ints != nil:
		slots := uint64(len(offs) - 1)
		ints := t.ints
		for i, x := range kc.ints {
			h := hashKey(x)
			if bloom && !t.filter.testHash(h) {
				continue
			}
			m.probed++
			s, _ := bits.Mul64(h, slots)
			lo, hi := offs[s], offs[s+1]
			m.steps += int64(hi - lo)
			for e := lo; e < hi; e++ {
				if ints[e] == x {
					m.pos = append(m.pos, int32(i))
					m.row = append(m.row, rows[e])
				}
			}
		}
	default:
		t.probeBoxed(kc, bloom, m)
	}
	if bloom {
		m.bloomPassed += m.probed
	}
}

// probeBoxed is the probe for every key-shape pairing but typed × typed. A
// boxed probe key with a canonical int64 meets typed entries through it;
// one without (string, fractional float) cannot equal any typed key, and a
// NULL one equals no key at all.
func (t *JoinTable) probeBoxed(kc keyCol, bloom bool, m *matches) {
	offs := t.offs
	slots := uint64(len(offs) - 1)
	n := kc.n()
	for i := 0; i < n; i++ {
		var v types.Value
		var x int64
		typed := kc.ints != nil
		if typed {
			x = kc.ints[i]
			v = types.NewInt64(x)
		} else {
			v = kc.vals[i]
			if v.IsNull() {
				continue
			}
			x, typed = canonInt(v)
		}
		var h, s uint64
		switch {
		case t.dense && typed:
			var ok bool
			if s, ok = t.denseSlot(x); !ok {
				continue
			}
		case t.vals == nil && !typed:
			continue
		default:
			if typed {
				h = hashKey(x)
			} else {
				h = mix64(v.Hash())
			}
			if bloom && !t.filter.testHash(h) {
				continue
			}
			s, _ = bits.Mul64(h, slots)
		}
		m.probed++
		lo, hi := offs[s], offs[s+1]
		m.steps += int64(hi - lo)
		for e := lo; e < hi; e++ {
			if t.ints != nil {
				if t.ints[e] != x {
					continue
				}
			} else if t.vals != nil && (t.hashes[e] != h || !types.Equal(t.vals[e], v)) {
				continue
			}
			m.pos = append(m.pos, int32(i))
			m.row = append(m.row, t.rows[e])
		}
	}
}
