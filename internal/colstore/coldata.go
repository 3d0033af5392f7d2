// Package colstore implements Proteus' column-oriented (decomposition
// storage model) layouts (§4.1.2 of the paper): in-memory columns held in
// typed data arrays with a position index, optional total sort order
// and run-length-encoded compression, a delta store buffering updates as
// rows in a hash table keyed by row_id, and a Parquet-like on-disk format
// storing metadata (index arrays) followed by per-column value blocks.
package colstore

import (
	"encoding/binary"
	"math"
	"sort"
	"sync/atomic"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// colEncoding identifies how one column's values are physically encoded.
type colEncoding uint8

const (
	// encPlain: decoded values in a typed position-indexed array.
	encPlain colEncoding = iota
	// encRLE: run-length encoding; runStart maps run -> first position.
	encRLE
	// encDict: dictionary encoding for strings; a sorted dictionary of the
	// distinct values plus a per-position code array, so code order is
	// value order and predicates translate to code ranges.
	encDict
	// encFoR: frame-of-reference encoding for the int family; a per-column
	// base (the minimum) plus per-position codes stored at a narrow width.
	encFoR
)

// String names the encoding (metrics keys and debugging).
func (e colEncoding) String() string {
	switch e {
	case encRLE:
		return "rle"
	case encDict:
		return "dict"
	case encFoR:
		return "for"
	}
	return "plain"
}

// maxDictSize bounds the dictionary: above this many distinct values the
// code array stops paying for the indirection and buildCol falls back to
// the other encodings.
const maxDictSize = 1 << 16

// Package-wide encoding counters, surfaced by the engine's metrics
// snapshot as colstore.encoding.*. They count compressed column builds
// only (compress=false builds are always plain and say nothing about
// encoding choice).
var (
	statColsPlain   atomic.Int64
	statColsRLE     atomic.Int64
	statColsDict    atomic.Int64
	statColsFoR     atomic.Int64
	statBytesStored atomic.Int64 // footprint of the chosen encodings
	statBytesPlain  atomic.Int64 // what plain storage would have cost
)

// EncodingStats snapshots the encoding-selection counters: columns built
// per encoding and the byte footprint of the chosen encodings against the
// plain-storage equivalent.
type EncodingStats struct {
	PlainCols, RLECols, DictCols, FoRCols int64
	StoredBytes, PlainBytes               int64
}

// ReadEncodingStats reads the cumulative encoding counters.
func ReadEncodingStats() EncodingStats {
	return EncodingStats{
		PlainCols:   statColsPlain.Load(),
		RLECols:     statColsRLE.Load(),
		DictCols:    statColsDict.Load(),
		FoRCols:     statColsFoR.Load(),
		StoredBytes: statBytesStored.Load(),
		PlainBytes:  statBytesPlain.Load(),
	}
}

// colData is one column's storage: values in position order, held in a
// typed array chosen by kind (the vectorized scan path hands out zero-copy
// views over these arrays; the shared rowIDs slice is the "offset array"
// mapping array positions to row_ids). Compressed layouts pick the
// cheapest of three encodings from the observed values (§4.1.2):
//
//   - run-length: runStart maps run index -> first covered position (with
//     a sentinel n at the end) and run values live in typed run arrays;
//   - dictionary (strings): a sorted dict plus per-position codes;
//   - frame-of-reference (int family): a base plus per-position codes.
//
// Operators work directly on runs and codes without expanding them. The
// byte-encoded form only exists on disk — serialize renders it and
// deserializeCol parses it back into typed arrays.
type colData struct {
	kind types.Kind
	enc  colEncoding
	cnt  int // number of stored positions

	// Plain representation (position-indexed). Exactly one payload array
	// is populated, per kind; nulls is non-nil only when the column holds
	// NULLs.
	i64   []int64
	f64   []float64
	str   []string
	nulls []bool
	// dataBytes approximates the encoded size of the value bytes (the sum
	// of types.VarWidth; for encDict, of the dictionary entries),
	// preserving the byte accounting of the serialized form for Stats and
	// the ASA's space model.
	dataBytes int

	// RLE representation.
	runStart []uint32 // run index -> first covered position; sentinel cnt at end
	rI64     []int64
	rF64     []float64
	rStr     []string
	rNulls   []bool
	// runBytes approximates the encoded run bytes ([4-byte count][value]).
	runBytes int

	// Dictionary / frame-of-reference representation. codes is
	// position-indexed; dict is the ascending-sorted distinct values
	// (encDict); forBase is the frame base (encFoR). codeW is the
	// serialized bytes per code (1, 2 or 4) implied by the dict size or
	// value range. Both encodings require a NULL-free column.
	dict    []string
	codes   []uint32
	forBase int64
	codeW   int
}

// buildCol encodes vals (already in position order) into a column. With
// compress set, the cheapest encoding is picked from the observed
// cardinality, value range and run structure.
func buildCol(kind types.Kind, vals []types.Value, compress bool) *colData {
	c := &colData{kind: kind, cnt: len(vals)}
	if !compress {
		c.buildPlain(vals)
		return c
	}
	c.enc = chooseEncoding(kind, vals)
	switch c.enc {
	case encPlain:
		c.buildPlain(vals)
	case encDict:
		c.buildDict(vals)
	case encFoR:
		c.buildFoR(vals)
	default:
		c.buildRLE(vals)
	}
	recordEncoding(c, vals)
	return c
}

// buildPlain fills the typed position-indexed arrays.
func (c *colData) buildPlain(vals []types.Value) {
	c.alloc(len(vals))
	for p, v := range vals {
		c.setUncompressed(p, v)
		c.dataBytes += types.VarWidth(v)
	}
}

// buildRLE run-length encodes the values.
func (c *colData) buildRLE(vals []types.Value) {
	i := 0
	for i < len(vals) {
		j := i + 1
		for j < len(vals) && types.Equal(vals[j], vals[i]) {
			j++
		}
		c.runStart = append(c.runStart, uint32(i))
		c.appendRun(vals[i])
		c.runBytes += 4 + types.VarWidth(vals[i])
		i = j
	}
	c.runStart = append(c.runStart, uint32(len(vals)))
}

// buildDict dictionary-encodes a NULL-free string column.
func (c *colData) buildDict(vals []types.Value) {
	seen := make(map[string]struct{}, 16)
	for _, v := range vals {
		seen[v.S] = struct{}{}
	}
	c.dict = make([]string, 0, len(seen))
	for s := range seen {
		c.dict = append(c.dict, s)
	}
	sort.Strings(c.dict)
	codeOf := make(map[string]uint32, len(c.dict))
	for i, s := range c.dict {
		codeOf[s] = uint32(i)
		c.dataBytes += 4 + len(s)
	}
	c.codes = make([]uint32, len(vals))
	for p, v := range vals {
		c.codes[p] = codeOf[v.S]
	}
	c.codeW = codeWidth(uint64(len(c.dict)) - 1)
}

// buildFoR frame-of-reference encodes a NULL-free int-family column whose
// value range fits 32-bit codes.
func (c *colData) buildFoR(vals []types.Value) {
	c.forBase = vals[0].I
	for _, v := range vals {
		if v.I < c.forBase {
			c.forBase = v.I
		}
	}
	c.codes = make([]uint32, len(vals))
	var maxCode uint64
	for p, v := range vals {
		d := uint64(v.I) - uint64(c.forBase)
		c.codes[p] = uint32(d)
		if d > maxCode {
			maxCode = d
		}
	}
	c.codeW = codeWidth(maxCode)
}

// codeWidth picks the narrowest serialized code width covering maxCode.
func codeWidth(maxCode uint64) int {
	switch {
	case maxCode <= math.MaxUint8:
		return 1
	case maxCode <= math.MaxUint16:
		return 2
	default:
		return 4
	}
}

// chooseEncoding scans the values once and picks the encoding with the
// smallest estimated footprint (matching the bytes() accounting below).
// Dictionary and FoR require NULL-free columns: NULL sorts below every
// value in types.Compare, so a NULL cannot be given a code without
// breaking the code-order-is-value-order invariant the kernels rely on.
func chooseEncoding(kind types.Kind, vals []types.Value) colEncoding {
	if len(vals) == 0 {
		return encRLE // empty columns keep the legacy compressed form
	}
	n := len(vals)
	intish := kind == types.KindInt64 || kind == types.KindTime
	hasNull := false
	plainBytes := 0
	runs, runValueBytes := 0, 0
	var mn, mx int64
	sawInt := false
	var distinct map[string]struct{}
	if kind == types.KindString {
		distinct = make(map[string]struct{}, 16)
	}
	for i, v := range vals {
		w := types.VarWidth(v)
		plainBytes += w
		if v.IsNull() {
			hasNull = true
		}
		if i == 0 || !types.Equal(v, vals[i-1]) {
			runs++
			runValueBytes += 4 + w
		}
		if intish && !v.IsNull() {
			if !sawInt || v.I < mn {
				mn = v.I
			}
			if !sawInt || v.I > mx {
				mx = v.I
			}
			sawInt = true
		}
		if distinct != nil && !v.IsNull() && len(distinct) <= maxDictSize {
			distinct[v.S] = struct{}{}
		}
	}
	best := encPlain
	bestBytes := plainBytes + 4*(n+1)
	if rleBytes := runValueBytes + 4*(runs+1) + 4*runs; rleBytes < bestBytes {
		best, bestBytes = encRLE, rleBytes
	}
	if distinct != nil && !hasNull && len(distinct) <= maxDictSize {
		dictBytes := 0
		for s := range distinct {
			dictBytes += 4 + len(s)
		}
		w := codeWidth(uint64(len(distinct)) - 1)
		if db := dictBytes + n*w + 4*(len(distinct)+1) + 16; db < bestBytes {
			best, bestBytes = encDict, db
		}
	}
	if intish && !hasNull && sawInt {
		if rng := uint64(mx) - uint64(mn); rng <= math.MaxUint32 {
			w := codeWidth(rng)
			if fb := n*w + 24; fb < bestBytes {
				best, bestBytes = encFoR, fb
			}
		}
	}
	return best
}

// recordEncoding updates the package encoding counters for one compressed
// column build.
func recordEncoding(c *colData, vals []types.Value) {
	switch c.enc {
	case encRLE:
		statColsRLE.Add(1)
	case encDict:
		statColsDict.Add(1)
	case encFoR:
		statColsFoR.Add(1)
	default:
		statColsPlain.Add(1)
	}
	plain := 4 * (len(vals) + 1)
	for _, v := range vals {
		plain += types.VarWidth(v)
	}
	statBytesPlain.Add(int64(plain))
	statBytesStored.Add(int64(c.bytes()))
}

// alloc sizes the payload array for n uncompressed positions.
func (c *colData) alloc(n int) {
	switch c.kind {
	case types.KindFloat64:
		c.f64 = make([]float64, n)
	case types.KindString:
		c.str = make([]string, n)
	default:
		c.i64 = make([]int64, n)
	}
}

// setUncompressed stores v at position p (the payload array is allocated).
func (c *colData) setUncompressed(p int, v types.Value) {
	if v.IsNull() {
		if c.nulls == nil {
			c.nulls = make([]bool, c.cnt)
		}
		c.nulls[p] = true
		return
	}
	switch c.kind {
	case types.KindFloat64:
		c.f64[p] = v.Float()
	case types.KindString:
		c.str[p] = v.S
	default:
		c.i64[p] = v.I
	}
}

// appendRun stores the next run's value (runs arrive in order).
func (c *colData) appendRun(v types.Value) {
	if v.IsNull() && c.rNulls == nil {
		c.rNulls = make([]bool, c.runCount())
	}
	if c.rNulls != nil {
		c.rNulls = append(c.rNulls, v.IsNull())
	}
	switch c.kind {
	case types.KindFloat64:
		c.rF64 = append(c.rF64, v.Float())
	case types.KindString:
		c.rStr = append(c.rStr, v.S)
	default:
		c.rI64 = append(c.rI64, v.I)
	}
}

// runCount reports the number of runs stored so far.
func (c *colData) runCount() int {
	switch c.kind {
	case types.KindFloat64:
		return len(c.rF64)
	case types.KindString:
		return len(c.rStr)
	default:
		return len(c.rI64)
	}
}

// uncompressedVal boxes the value at position p of an uncompressed column.
func (c *colData) uncompressedVal(p int) types.Value {
	if c.nulls != nil && c.nulls[p] {
		return types.Null()
	}
	switch c.kind {
	case types.KindFloat64:
		return types.Value{K: types.KindFloat64, F: c.f64[p]}
	case types.KindString:
		return types.Value{K: types.KindString, S: c.str[p]}
	case types.KindNull:
		return types.Null()
	default:
		return types.Value{K: c.kind, I: c.i64[p]}
	}
}

// runVal boxes run r's value.
func (c *colData) runVal(r int) types.Value {
	if c.rNulls != nil && c.rNulls[r] {
		return types.Null()
	}
	switch c.kind {
	case types.KindFloat64:
		return types.Value{K: types.KindFloat64, F: c.rF64[r]}
	case types.KindString:
		return types.Value{K: types.KindString, S: c.rStr[r]}
	case types.KindNull:
		return types.Null()
	default:
		return types.Value{K: c.kind, I: c.rI64[r]}
	}
}

// runIndex finds the run covering position p by binary search.
func (c *colData) runIndex(p int) int {
	return sort.Search(len(c.runStart)-1, func(i int) bool { return c.runStart[i+1] > uint32(p) })
}

// n reports the number of stored positions.
func (c *colData) n() int { return c.cnt }

// bytes reports the column's data-array footprint (encoded-size accounting,
// matching the serialized form's index + value bytes).
func (c *colData) bytes() int {
	switch c.enc {
	case encRLE:
		return c.runBytes + 4*len(c.runStart) + 4*c.runCount()
	case encDict:
		return c.dataBytes + c.cnt*c.codeW + 4*(len(c.dict)+1) + 16
	case encFoR:
		return c.cnt*c.codeW + 24
	default:
		return c.dataBytes + 4*(c.cnt+1)
	}
}

// get decodes the value at position pos (random access; sequential access
// should prefer iter).
func (c *colData) get(pos int) types.Value {
	switch c.enc {
	case encRLE:
		return c.runVal(c.runIndex(pos))
	case encDict:
		return types.Value{K: types.KindString, S: c.dict[c.codes[pos]]}
	case encFoR:
		return types.Value{K: c.kind, I: c.forBase + int64(c.codes[pos])}
	default:
		return c.uncompressedVal(pos)
	}
}

// iter returns a sequential accessor: calling it with strictly increasing
// positions resolves each RLE run only once.
func (c *colData) iter() func(pos int) types.Value {
	if c.enc != encRLE {
		return func(pos int) types.Value { return c.get(pos) }
	}
	run := 0
	var cur types.Value
	decoded := -1
	return func(pos int) types.Value {
		for run+1 < len(c.runStart)-1 && c.runStart[run+1] <= uint32(pos) {
			run++
		}
		// Allow backward jumps by re-searching.
		if run < len(c.runStart)-1 && c.runStart[run] > uint32(pos) {
			run = c.runIndex(pos)
			decoded = -1
		}
		if decoded != run {
			cur = c.runVal(run)
			decoded = run
		}
		return cur
	}
}

// viewVec wraps positions [lo, hi) of a non-RLE column as a zero-copy
// vector view (the batch fast path). Dictionary and FoR columns hand out
// encoded views over their code arrays — predicates and aggregate folds
// run on raw codes and only projected output rows decode.
func (c *colData) viewVec(lo, hi int) storage.Vec {
	switch c.enc {
	case encDict:
		return storage.DictVec(c.codes[lo:hi], c.dict)
	case encFoR:
		return storage.FoRVec(c.kind, c.forBase, c.codes[lo:hi])
	}
	var nulls []bool
	if c.nulls != nil {
		nulls = c.nulls[lo:hi]
	}
	switch c.kind {
	case types.KindFloat64:
		return storage.ViewVec(c.kind, nil, c.f64[lo:hi], nil, nulls)
	case types.KindString:
		return storage.ViewVec(c.kind, nil, nil, c.str[lo:hi], nulls)
	default:
		return storage.ViewVec(c.kind, c.i64[lo:hi], nil, nil, nulls)
	}
}

// runsVec wraps positions [lo, hi) of an RLE column as a run-length vector
// without expanding the runs: run values stay zero-copy views into the run
// arrays and only the clamped run boundaries are computed per chunk. ok is
// false when a covered run holds NULL (the caller expands via fillVec —
// NULL-bearing run vectors would need run-indexed null tracking that no
// kernel wants to reason about).
func (c *colData) runsVec(lo, hi int) (storage.Vec, bool) {
	nr := len(c.runStart) - 1
	r0 := c.runIndex(lo)
	r1 := r0
	var runEnds []uint32
	for r := r0; r < nr && int(c.runStart[r]) < hi; r++ {
		if c.rNulls != nil && c.rNulls[r] {
			return storage.Vec{}, false
		}
		e := int(c.runStart[r+1])
		if e > hi {
			e = hi
		}
		runEnds = append(runEnds, uint32(e-lo))
		r1 = r + 1
	}
	switch c.kind {
	case types.KindFloat64:
		return storage.RunsVec(c.kind, nil, c.rF64[r0:r1], nil, runEnds), true
	case types.KindString:
		return storage.RunsVec(c.kind, nil, nil, c.rStr[r0:r1], runEnds), true
	default:
		return storage.RunsVec(c.kind, c.rI64[r0:r1], nil, nil, runEnds), true
	}
}

// fillVec expands positions [lo, hi) into v (RLE run expansion path).
func (c *colData) fillVec(v *storage.Vec, lo, hi int) {
	nr := len(c.runStart) - 1
	for r := c.runIndex(lo); r < nr && int(c.runStart[r]) < hi; r++ {
		s := int(c.runStart[r])
		if s < lo {
			s = lo
		}
		e := int(c.runStart[r+1])
		if e > hi {
			e = hi
		}
		v.AppendN(c.runVal(r), e-s)
	}
}

// colMagic is the version marker of the extended serialized format. The
// legacy format's first byte is the RLE flag (0 or 1); dictionary and FoR
// columns open with colMagic followed by the encoding byte, so old images
// still parse and new readers dispatch on the first byte.
const colMagic = 0xC2

// colIndex is the metadata the disk store caches for ranged cell reads:
// the encoding, where the value bytes begin within the image, and the
// per-encoding index (offs for plain columns, runStart/runOff for RLE,
// code width plus dictionary/base for the code encodings).
type colIndex struct {
	enc     colEncoding
	dataOff int // offset of value bytes within the image
	// encPlain: position -> value offset within the data section.
	offs []uint32
	// encRLE.
	runStart []uint32
	runOff   []uint32
	// encDict / encFoR: codes are packed at codeW bytes from dataOff.
	codeW   int
	forBase int64
	dict    []string
}

// serialize renders the column's disk representation: a small header, the
// index arrays, then the value bytes (metadata before values, like Parquet).
func (c *colData) serialize() []byte {
	img, _ := c.serializeWithIndex()
	return img
}

// putCode appends one code at width w (little-endian).
func putCode(dst []byte, code uint32, w int) []byte {
	switch w {
	case 1:
		return append(dst, byte(code))
	case 2:
		return append(dst, byte(code), byte(code>>8))
	default:
		return append(dst, byte(code), byte(code>>8), byte(code>>16), byte(code>>24))
	}
}

// readCodeAt decodes one code of width w from b.
func readCodeAt(b []byte, w int) uint32 {
	switch w {
	case 1:
		return uint32(b[0])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b))
	default:
		return binary.LittleEndian.Uint32(b)
	}
}

// serializeWithIndex additionally returns the index the disk store caches
// for ranged cell reads.
func (c *colData) serializeWithIndex() ([]byte, colIndex) {
	var out []byte
	var b [4]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		out = append(out, b[:]...)
	}
	put64 := func(v uint64) {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], v)
		out = append(out, w[:]...)
	}
	switch c.enc {
	case encRLE:
		nr := len(c.runStart) - 1
		if nr < 0 {
			nr = 0
		}
		var runData []byte
		runOff := make([]uint32, 0, nr)
		for r := 0; r < nr; r++ {
			binary.LittleEndian.PutUint32(b[:], c.runStart[r+1]-c.runStart[r])
			runData = append(runData, b[:]...)
			runOff = append(runOff, uint32(len(runData)))
			runData = types.AppendVar(runData, c.runVal(r))
		}
		out = append(out, 1, byte(c.kind))
		put32(uint32(len(c.runStart)))
		for _, s := range c.runStart {
			put32(s)
		}
		put32(uint32(len(runOff)))
		for _, o := range runOff {
			put32(o)
		}
		put32(uint32(len(runData)))
		dataOff := len(out)
		out = append(out, runData...)
		return out, colIndex{enc: encRLE, dataOff: dataOff, runStart: c.runStart, runOff: runOff}
	case encDict:
		// [magic, enc, kind] cnt codeW dictLen dataLen | codes dictBlob
		out = append(out, colMagic, byte(encDict), byte(c.kind))
		put32(uint32(c.cnt))
		put32(uint32(c.codeW))
		put32(uint32(len(c.dict)))
		var data []byte
		for _, code := range c.codes {
			data = putCode(data, code, c.codeW)
		}
		for _, s := range c.dict {
			data = types.AppendVar(data, types.NewString(s))
		}
		put32(uint32(len(data)))
		dataOff := len(out)
		out = append(out, data...)
		return out, colIndex{enc: encDict, dataOff: dataOff, codeW: c.codeW, dict: c.dict}
	case encFoR:
		// [magic, enc, kind] cnt codeW base dataLen | codes
		out = append(out, colMagic, byte(encFoR), byte(c.kind))
		put32(uint32(c.cnt))
		put32(uint32(c.codeW))
		put64(uint64(c.forBase))
		var data []byte
		for _, code := range c.codes {
			data = putCode(data, code, c.codeW)
		}
		put32(uint32(len(data)))
		dataOff := len(out)
		out = append(out, data...)
		return out, colIndex{enc: encFoR, dataOff: dataOff, codeW: c.codeW, forBase: c.forBase}
	}
	var data []byte
	offs := make([]uint32, 0, c.cnt+1)
	for p := 0; p < c.cnt; p++ {
		offs = append(offs, uint32(len(data)))
		data = types.AppendVar(data, c.uncompressedVal(p))
	}
	offs = append(offs, uint32(len(data)))
	out = append(out, 0, byte(c.kind))
	put32(uint32(len(offs)))
	for _, o := range offs {
		put32(o)
	}
	put32(uint32(len(data)))
	dataOff := len(out)
	out = append(out, data...)
	return out, colIndex{enc: encPlain, dataOff: dataOff, offs: offs}
}

// deserializeCol reconstructs a column from its disk representation,
// decoding the value bytes back into typed arrays. A zero-length value
// region marks a NULL (types.AppendVar encodes NULL as no bytes). Images
// opening with colMagic carry the extended encodings; the two legacy
// leading bytes (0 plain, 1 RLE) parse as before.
func deserializeCol(buf []byte) *colData {
	if buf[0] == colMagic {
		return deserializeEncoded(buf)
	}
	c := &colData{}
	if buf[0] == 1 {
		c.enc = encRLE
	}
	c.kind = types.Kind(buf[1])
	off := 2
	get32 := func() uint32 {
		v := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		return v
	}
	if c.enc == encRLE {
		n := int(get32())
		c.runStart = make([]uint32, n)
		for i := range c.runStart {
			c.runStart[i] = get32()
		}
		n = int(get32())
		runOff := make([]uint32, n)
		for i := range runOff {
			runOff[i] = get32()
		}
		dn := int(get32())
		runData := buf[off : off+dn]
		c.runBytes = dn
		if len(c.runStart) > 0 {
			c.cnt = int(c.runStart[len(c.runStart)-1])
		}
		for r := range runOff {
			vo := int(runOff[r])
			end := dn
			if r+1 < len(runOff) {
				end = int(runOff[r+1]) - 4 // exclude next run's count prefix
			}
			if vo >= end {
				c.appendRun(types.Null())
				continue
			}
			v, _ := types.DecodeVar(runData[vo:], c.kind)
			c.appendRun(v)
		}
		return c
	}
	n := int(get32())
	offs := make([]uint32, n)
	for i := range offs {
		offs[i] = get32()
	}
	dn := int(get32())
	data := buf[off : off+dn]
	c.dataBytes = dn
	if n > 0 {
		c.cnt = n - 1
	}
	c.alloc(c.cnt)
	for p := 0; p < c.cnt; p++ {
		if offs[p] == offs[p+1] {
			c.setUncompressed(p, types.Null())
			continue
		}
		v, _ := types.DecodeVar(data[offs[p]:], c.kind)
		c.setUncompressed(p, v)
	}
	return c
}

// deserializeEncoded parses the colMagic formats (dictionary and FoR) back
// into typed code arrays.
func deserializeEncoded(buf []byte) *colData {
	c := &colData{enc: colEncoding(buf[1]), kind: types.Kind(buf[2])}
	off := 3
	get32 := func() uint32 {
		v := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		return v
	}
	c.cnt = int(get32())
	c.codeW = int(get32())
	switch c.enc {
	case encDict:
		dictLen := int(get32())
		_ = get32() // dataLen
		c.codes = make([]uint32, c.cnt)
		for p := 0; p < c.cnt; p++ {
			c.codes[p] = readCodeAt(buf[off:], c.codeW)
			off += c.codeW
		}
		c.dict = make([]string, dictLen)
		for i := 0; i < dictLen; i++ {
			v, n := types.DecodeVar(buf[off:], types.KindString)
			c.dict[i] = v.S
			c.dataBytes += 4 + len(v.S)
			off += n
		}
	case encFoR:
		c.forBase = int64(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		_ = get32() // dataLen
		c.codes = make([]uint32, c.cnt)
		for p := 0; p < c.cnt; p++ {
			c.codes[p] = readCodeAt(buf[off:], c.codeW)
			off += c.codeW
		}
	}
	return c
}

// base is the merged, immutable portion of a column store: every column in
// the same position order, the offset array (position -> row_id) and the
// position array (row_id -> position).
type base struct {
	rowIDs []schema.RowID
	pos    map[schema.RowID]int
	cols   []*colData
}

// buildBase constructs the merged representation from full rows. If sortBy
// is a valid column, positions are ordered by that column's value (ties by
// row_id); otherwise by row_id.
func buildBase(kinds []types.Kind, rows []schema.Row, sortBy schema.ColID, compress bool) *base {
	sorted := make([]schema.Row, len(rows))
	copy(sorted, rows)
	if sortBy >= 0 && int(sortBy) < len(kinds) {
		sort.SliceStable(sorted, func(i, j int) bool {
			c := types.Compare(sorted[i].Vals[sortBy], sorted[j].Vals[sortBy])
			if c != 0 {
				return c < 0
			}
			return sorted[i].ID < sorted[j].ID
		})
	} else {
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	}
	b := &base{
		rowIDs: make([]schema.RowID, len(sorted)),
		pos:    make(map[schema.RowID]int, len(sorted)),
		cols:   make([]*colData, len(kinds)),
	}
	colVals := make([][]types.Value, len(kinds))
	for ci := range kinds {
		colVals[ci] = make([]types.Value, len(sorted))
	}
	for p, r := range sorted {
		b.rowIDs[p] = r.ID
		b.pos[r.ID] = p
		for ci := range kinds {
			colVals[ci][p] = r.Vals[ci]
		}
	}
	for ci, k := range kinds {
		b.cols[ci] = buildCol(k, colVals[ci], compress)
	}
	return b
}

// row materializes the projection cols of the row at position p.
func (b *base) row(p int, cols []schema.ColID) schema.Row {
	vals := make([]types.Value, len(cols))
	for i, c := range cols {
		vals[i] = b.cols[c].get(p)
	}
	return schema.Row{ID: b.rowIDs[p], Vals: vals}
}
