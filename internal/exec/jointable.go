package exec

import (
	"math"
	"math/bits"
	"time"

	"proteus/internal/storage"
	"proteus/internal/types"
)

// JoinTable is the build side of a hash join: the build relation's
// canonical keys laid out bucket by bucket (CSR: slot s owns entries
// [offs[s], offs[s+1]), ascending in build row within a slot, so probing in
// order emits matches in the row HashJoin's order), the build relation's
// columns as payload, and the runtime filter derived from the same key pass.
// It is immutable once built: any number of goroutines may probe it.
//
// Hash contract. Every key hashes through hashKey/hashValue: keys that
// compare types.Equal under the types.Value.Hash criterion (int-family
// values and integral floats canonicalize to one int64; NULL == NULL) hash
// alike, and the hash is a full-avalanche finalizer, so any bit range of it
// is usable: the table slot is the multiply-high of the hash by the slot
// count (top bits), the Bloom filter takes bits 0..31, grace partitioning
// bits 0..23. The slot count is twice the build cardinality (load factor
// 0.5), so a probe visits its matches plus on average half an entry.
type JoinTable struct {
	cols   ColRel
	offs   []int32       // len slots+1
	rows   []int32       // entry -> build row
	ints   []int64       // entry -> typed key (typed tables)
	vals   []types.Value // entry -> boxed key (boxed tables)
	hashes []uint64      // entry -> key hash (boxed tables only)
	filter *RuntimeFilter

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

// BuildJoinTable hashes key column key of the build relation into a table
// whose payload is the relation's columns. The table's runtime filter
// carries Bloom bits besides the min-max bounds (up to maxBloomBuildRows
// build rows), and probes consult them before touching a bucket.
func BuildJoinTable(build *ColRel, key int) *JoinTable {
	start := time.Now()
	kc := canonKeyCol(&build.Vecs[key], build.NumRows())
	hs := kc.hashes()
	t := newJoinTable(kc, hs)
	t.cols = *build
	t.filter = newRuntimeFilter(kc, hs, build.Vecs[key].Kind)
	t.buildNanos = time.Since(start).Nanoseconds()
	return t
}

// newJoinTable lays canonical keys (hashes hs) out bucket by bucket.
func newJoinTable(kc keyCol, hs []uint64) *JoinTable {
	n := len(hs)
	slots := uint64(2 * n)
	if slots < 2 {
		slots = 2
	}
	// Counting sort by slot, stable in build row. Slot s counts into
	// offs[s+2], the prefix sum leaves s's start in offs[s+1], and the
	// scatter advances it to s's end — the start of s+1.
	offs := make([]int32, slots+2)
	for _, h := range hs {
		s, _ := bits.Mul64(h, slots)
		offs[s+2]++
	}
	for s := uint64(2); s < slots+2; s++ {
		offs[s] += offs[s-1]
	}
	t := &JoinTable{offs: offs[:slots+1], rows: make([]int32, n)}
	if kc.ints != nil {
		t.ints = make([]int64, n)
	} else {
		t.vals = make([]types.Value, n)
		t.hashes = make([]uint64, n)
	}
	for i, h := range hs {
		s, _ := bits.Mul64(h, slots)
		e := offs[s+1]
		offs[s+1]++
		t.rows[e] = int32(i)
		if t.ints != nil {
			t.ints[e] = kc.ints[i]
		} else {
			t.vals[e] = kc.vals[i]
			t.hashes[e] = h
		}
	}
	return t
}

// Rows reports the build cardinality.
func (t *JoinTable) Rows() int { return len(t.rows) }

// Cols returns the build relation the table indexes (read-only).
func (t *JoinTable) Cols() *ColRel { return &t.cols }

// Filter returns the runtime filter derived from the build keys.
func (t *JoinTable) Filter() *RuntimeFilter { return t.filter }

// Bytes is the table's size on the wire: the build relation — keys and
// payload columns — plus a header. Bucket offsets, the slot-ordered key
// copy and the Bloom bits are all derivable from the key column in one
// sequential pass, so a receiving site rebuilds them instead of paying
// network for them.
func (t *JoinTable) Bytes() int64 { return t.cols.Bytes() + 64 }

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
	bloom := t.filter != nil && t.filter.bits != nil
	if bloom {
		m.bloomTested += int64(n)
	}
	offs := t.offs
	slots := uint64(len(offs) - 1)
	if t.ints != nil && kc.ints != nil {
		ints, rows := t.ints, t.rows
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
	} else {
		t.probeBoxed(kc, bloom, m)
	}
	if bloom {
		m.bloomPassed += m.probed
	}
}

// probeBoxed is the probe for every key-shape pairing but typed × typed. A
// boxed probe key with a canonical int64 meets typed entries through it;
// one without (NULL, string, fractional float) cannot equal any typed key.
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
			x, typed = canonInt(v)
		}
		var h uint64
		switch {
		case typed:
			h = hashKey(x)
		case t.ints != nil:
			continue
		default:
			h = mix64(v.Hash())
		}
		if bloom && !t.filter.testHash(h) {
			continue
		}
		m.probed++
		s, _ := bits.Mul64(h, slots)
		lo, hi := offs[s], offs[s+1]
		m.steps += int64(hi - lo)
		for e := lo; e < hi; e++ {
			if t.ints != nil {
				if t.ints[e] != x {
					continue
				}
			} else if t.hashes[e] != h || !types.Equal(t.vals[e], v) {
				continue
			}
			m.pos = append(m.pos, int32(i))
			m.row = append(m.row, t.rows[e])
		}
	}
}
