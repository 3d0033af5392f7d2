package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"proteus/internal/cost"
	"proteus/internal/disksim"
	"proteus/internal/types"
)

// Batch-native hash join (§4.3), materializing form. The row HashJoin boxes
// every tuple and allocates one concatenated tuple per output row; this
// engine instead keeps both inputs columnar (ColRel), canonicalizes the
// single join key into a typed int64 array when the column is null-free
// int-family (or integral float), builds one JoinTable (jointable.go) over
// the smaller side, probes it with the whole other side to a (left,right)
// row-index pair list, and late-materializes every payload column with one
// typed gather per column. Output order matches the row variants exactly:
// ascending left index, then ascending right index, so differential tests
// compare row for row. The cluster executor probes the same table inside
// its morsel workers instead (joinpipe.go) wherever the probe side is a
// scan; this form serves what that pipeline cannot.
//
// Oversized build sides degrade gracefully: when the build relation
// exceeds the spill budget both key columns hash-partition (grace hash
// join) through the disksim spill device — keys and original row indexes
// are serialized out and joined partition-pair at a time, recursively
// repartitioning skewed partitions — and the matched index pairs are
// sorted back into left-major order. Payload columns are never spilled:
// the scan pipeline has already materialized them, so spilling bounds the
// join's hash-table working set (keys + table), which is what grows with
// the build side; materialization still gathers from the in-memory
// payload vectors.

// JoinSpill configures build-side spilling: when the estimated build
// relation exceeds Budget bytes, key partitions round-trip through Device.
type JoinSpill struct {
	Device *disksim.Device
	Budget int64
}

const (
	graceFanout   = 8
	maxGraceDepth = 8
)

// keySet is one side of a (possibly spilled) join partition: canonical
// keys plus the original row indexes they came from. idx == nil means
// identity (row i is original row i).
type keySet struct {
	kc  keyCol
	idx []int32
}

func (s keySet) n() int { return s.kc.n() }

func (s keySet) orig(i int) int32 {
	if s.idx == nil {
		return int32(i)
	}
	return s.idx[i]
}

// pairBuf accumulates one join's matched (left,right) original row index
// pairs, plus the probe scratch and the build time its joinPairs calls add
// up (one call in memory, one per partition pair when spilled).
type pairBuf struct {
	li, ri     []int32
	m          matches
	buildNanos int64
}

// joinPairs joins two keySets in memory — build one JoinTable, probe
// it with everything — appending matched original index pairs in probe
// order. buildIsLeft says which side of the output the build keys belong to.
func joinPairs(build, probe keySet, buildIsLeft bool, pairs *pairBuf) {
	if build.n() == 0 || probe.n() == 0 {
		return
	}
	start := time.Now()
	t, _ := newJoinTable(build.kc)
	pairs.buildNanos += time.Since(start).Nanoseconds()
	m := &pairs.m
	m.reset()
	t.probe(probe.kc, m)
	statJoinChainSteps.Add(m.steps)
	if probe.idx == nil && build.idx == nil {
		// In memory, positions are original row indexes already.
		l, r := m.pos, m.row
		if buildIsLeft {
			l, r = r, l
		}
		pairs.li, pairs.ri = append(pairs.li, l...), append(pairs.ri, r...)
		return
	}
	for i, pi := range m.pos {
		l, r := probe.orig(int(pi)), build.orig(int(m.row[i]))
		if buildIsLeft {
			l, r = r, l
		}
		pairs.li = append(pairs.li, l)
		pairs.ri = append(pairs.ri, r)
	}
}

// sortByLeft stably reorders pairs by left index (a counting sort over the
// nLeft left rows). Stability is what restores the row HashJoin's
// left-major contract: all pairs of one left row come from one joinPairs
// call, which emitted them in ascending right index.
func (p *pairBuf) sortByLeft(nLeft int) {
	offs := make([]int32, nLeft+1)
	for _, l := range p.li {
		offs[l+1]++
	}
	for i := 1; i <= nLeft; i++ {
		offs[i] += offs[i-1]
	}
	li, ri := make([]int32, len(p.li)), make([]int32, len(p.ri))
	for i, l := range p.li {
		li[offs[l]], ri[offs[l]] = l, p.ri[i]
		offs[l]++
	}
	p.li, p.ri = li, ri
}

// keySetBytes estimates the serialized/working size of a keySet.
func keySetBytes(s keySet) int64 {
	n := int64(s.n())
	if s.kc.ints != nil {
		return n * 12
	}
	var b int64
	for _, v := range s.kc.vals {
		b += 12 + int64(len(v.S))
	}
	return b
}

// gracePartition derives a partition index from a key hash, using a
// different bit range per recursion depth so repartitioning actually
// splits (the table slot comes from the top bits, untouched here).
func gracePartition(h uint64, depth int) int {
	return int(h>>(3*uint(depth))) & (graceFanout - 1)
}

// serializeKeySet encodes a keySet as one spill block: row count, a typed
// flag, then per row the original index and the key payload.
func serializeKeySet(s keySet) []byte {
	n := s.n()
	buf := make([]byte, 0, 5+n*12)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	if s.kc.ints != nil {
		buf = append(buf, 1)
		for i := 0; i < n; i++ {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(s.orig(i)))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.kc.ints[i]))
		}
		return buf
	}
	buf = append(buf, 0)
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.orig(i)))
		v := s.kc.vals[i]
		buf = append(buf, byte(v.K))
		switch v.K {
		case types.KindNull:
		case types.KindString:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.S)))
			buf = append(buf, v.S...)
		case types.KindFloat64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
		default:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
		}
	}
	return buf
}

func deserializeKeySet(buf []byte) (keySet, error) {
	if len(buf) < 5 {
		return keySet{}, fmt.Errorf("spill block too short: %d bytes", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	typed := buf[4] == 1
	off := 5
	s := keySet{idx: make([]int32, 0, n)}
	if typed {
		s.kc.ints = make([]int64, 0, n)
		for i := 0; i < n; i++ {
			if off+12 > len(buf) {
				return keySet{}, fmt.Errorf("truncated spill block")
			}
			s.idx = append(s.idx, int32(binary.LittleEndian.Uint32(buf[off:])))
			s.kc.ints = append(s.kc.ints, int64(binary.LittleEndian.Uint64(buf[off+4:])))
			off += 12
		}
		return s, nil
	}
	s.kc.vals = make([]types.Value, 0, n)
	for i := 0; i < n; i++ {
		if off+5 > len(buf) {
			return keySet{}, fmt.Errorf("truncated spill block")
		}
		s.idx = append(s.idx, int32(binary.LittleEndian.Uint32(buf[off:])))
		k := types.Kind(buf[off+4])
		off += 5
		var v types.Value
		switch k {
		case types.KindNull:
			v = types.Null()
		case types.KindString:
			if off+4 > len(buf) {
				return keySet{}, fmt.Errorf("truncated spill block")
			}
			ln := int(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			if off+ln > len(buf) {
				return keySet{}, fmt.Errorf("truncated spill block")
			}
			v = types.NewString(string(buf[off : off+ln]))
			off += ln
		default:
			if off+8 > len(buf) {
				return keySet{}, fmt.Errorf("truncated spill block")
			}
			u := binary.LittleEndian.Uint64(buf[off:])
			off += 8
			if k == types.KindFloat64 {
				v = types.Value{K: k, F: math.Float64frombits(u)}
			} else {
				v = types.Value{K: k, I: int64(u)}
			}
		}
		s.kc.vals = append(s.kc.vals, v)
	}
	return s, nil
}

// graceJoin hash-partitions both keySets through the spill device and
// joins partition pairs, recursing on build partitions that still exceed
// the budget. Pair order across partitions is arbitrary; BatchHashJoin
// sorts the full pair list afterwards.
func graceJoin(sp *JoinSpill, build, probe keySet, buildIsLeft bool, pairs *pairBuf, depth int) error {
	var bparts, pparts [graceFanout]keySet
	split := func(s keySet, parts *[graceFanout]keySet) {
		n := s.n()
		for i := 0; i < n; i++ {
			p := gracePartition(s.kc.hash(i), depth)
			dst := &parts[p]
			dst.idx = append(dst.idx, s.orig(i))
			if s.kc.ints != nil {
				dst.kc.ints = append(dst.kc.ints, s.kc.ints[i])
			} else {
				dst.kc.vals = append(dst.kc.vals, s.kc.vals[i])
			}
		}
	}
	split(build, &bparts)
	split(probe, &pparts)
	parentBuild := build.n()
	for p := 0; p < graceFanout; p++ {
		if bparts[p].n() == 0 || pparts[p].n() == 0 {
			continue
		}
		// Round-trip both partitions through the spill device so the
		// in-memory working set at any moment is one partition pair.
		bblob := serializeKeySet(bparts[p])
		pblob := serializeKeySet(pparts[p])
		bid, err := sp.Device.Write(bblob)
		if err != nil {
			return fmt.Errorf("join spill write: %w", err)
		}
		pid, err := sp.Device.Write(pblob)
		if err != nil {
			sp.Device.Free(bid)
			return fmt.Errorf("join spill write: %w", err)
		}
		statSpillPartitions.Add(2)
		statSpillBytes.Add(int64(len(bblob) + len(pblob)))
		bparts[p], pparts[p] = keySet{}, keySet{}

		bback, err := sp.Device.Read(bid)
		if err == nil {
			var pback []byte
			pback, err = sp.Device.Read(pid)
			if err == nil {
				var bs, ps keySet
				if bs, err = deserializeKeySet(bback); err == nil {
					if ps, err = deserializeKeySet(pback); err == nil {
						if depth+1 < maxGraceDepth && keySetBytes(bs) > sp.Budget && bs.n() < parentBuild {
							statSpillRecursions.Add(1)
							err = graceJoin(sp, bs, ps, buildIsLeft, pairs, depth+1)
						} else {
							joinPairs(bs, ps, buildIsLeft, pairs)
						}
					}
				}
			}
		}
		sp.Device.Free(bid)
		sp.Device.Free(pid)
		if err != nil {
			return err
		}
	}
	return nil
}

// BatchHashJoin computes the inner single-key equi-join of two columnar
// relations, returning the joined relation (left columns then right
// columns, left-major row order matching HashJoin) and a cost observation
// carrying the batch-join feature vector. spill may be nil to disable
// build-side spilling. projL/projR select which columns of each input to
// materialize (nil means all): late materialization's payoff — a parent
// aggregation that reads two of six join columns gathers only those two.
func BatchHashJoin(l, r *ColRel, lKey, rKey int, spill *JoinSpill, projL, projR []int) (ColRel, cost.Observation, error) {
	start := time.Now()
	buildIsLeft := l.NumRows() < r.NumRows()
	build, probe := r, l
	bKey, pKey := rKey, lKey
	if buildIsLeft {
		build, probe = l, r
		bKey, pKey = lKey, rKey
	}
	bset := keySet{kc: canonKeyCol(&build.Vecs[bKey], build.NumRows())}
	canonNanos := time.Since(start).Nanoseconds()
	pset := keySet{kc: canonKeyCol(&probe.Vecs[pKey], probe.NumRows())}

	var pairs pairBuf
	var spilled bool
	var spillBytesBefore int64
	if spill != nil && spill.Device != nil && spill.Budget > 0 && build.Bytes() > spill.Budget && build.NumRows() > 1 {
		spilled = true
		spillBytesBefore = statSpillBytes.Load()
		if err := graceJoin(spill, bset, pset, buildIsLeft, &pairs, 0); err != nil {
			return ColRel{}, cost.Observation{}, err
		}
	} else {
		joinPairs(bset, pset, buildIsLeft, &pairs)
	}
	if spilled || buildIsLeft {
		// Pairs arrive probe-major, partition by partition; restore the
		// row HashJoin's left-major contract.
		pairs.sortByLeft(l.NumRows())
	}

	if projL == nil {
		projL = identityProj(len(l.Vecs))
	}
	if projR == nil {
		projR = identityProj(len(r.Vecs))
	}
	cols := make([]string, 0, len(projL)+len(projR))
	for _, c := range projL {
		cols = append(cols, l.Cols[c])
	}
	for _, c := range projR {
		cols = append(cols, r.Cols[c])
	}
	out := NewColRel(cols)
	for i, c := range projL {
		out.Vecs[i].AppendVec(&l.Vecs[c], pairs.li)
	}
	for i, c := range projR {
		out.Vecs[len(projL)+i].AppendVec(&r.Vecs[c], pairs.ri)
	}
	out.rows = len(pairs.li)

	d := time.Since(start)
	buildNanos := canonNanos + pairs.buildNanos
	statJoins.Add(1)
	statJoinBuildRows.Add(int64(build.NumRows()))
	statJoinProbeRows.Add(int64(probe.NumRows()))
	statJoinOutRows.Add(int64(out.rows))
	statJoinBuildNanos.Add(buildNanos)
	statJoinProbeNanos.Add(d.Nanoseconds() - buildNanos)

	sel := 1.0
	if denom := float64(l.NumRows()) * float64(r.NumRows()); denom > 0 {
		sel = float64(out.rows) / denom
	}
	var spillBytes int64
	if spilled {
		spillBytes = statSpillBytes.Load() - spillBytesBefore
	}
	obs := cost.Observation{
		Op:      cost.OpJoin,
		Variant: cost.JoinHashBatch,
		Features: cost.JoinFeaturesBatch(build.NumRows(), probe.NumRows(), out.rows,
			l.RowBytes()+r.RowBytes(), sel, spillBytes),
		Latency: d,
	}
	return out, obs, nil
}

func identityProj(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
