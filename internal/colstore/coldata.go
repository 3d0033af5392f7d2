// Package colstore implements Proteus' column-oriented (decomposition
// storage model) layouts (§4.1.2 of the paper): in-memory columns held in
// typed data arrays with a position index, optional total sort order
// and run-length-encoded compression, a delta store buffering updates as
// rows in a hash table keyed by row_id, and a Parquet-like on-disk format
// storing each column as one block, metadata first, then its values: a
// typed array for fixed-width kinds (8 B per int64, time or float64, 1 B
// per bool, with a NULL bitmap only when the column holds NULLs), packed
// codes for dictionary and frame-of-reference columns, an offset array
// before the values of a plain string column, and run boundaries before
// an RLE column's runs.
package colstore

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
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

// buildCol encodes the plain vector vals (already in position order) into
// a column. With compress set, the cheapest encoding is picked from the
// observed cardinality, value range and run structure.
func buildCol(kind types.Kind, vals *storage.Vec, compress bool) *colData {
	c := &colData{kind: kind, cnt: vals.Len()}
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
func (c *colData) buildPlain(vals *storage.Vec) {
	c.alloc(c.cnt)
	for p := 0; p < c.cnt; p++ {
		v := vals.Value(p)
		c.setUncompressed(p, v)
		c.dataBytes += types.VarWidth(v)
	}
}

// buildRLE run-length encodes the values.
func (c *colData) buildRLE(vals *storage.Vec) {
	i := 0
	for i < c.cnt {
		v := vals.Value(i)
		j := i + 1
		for j < c.cnt && types.Equal(vals.Value(j), v) {
			j++
		}
		c.runStart = append(c.runStart, uint32(i))
		c.appendRun(v)
		c.runBytes += 4 + types.VarWidth(v)
		i = j
	}
	c.runStart = append(c.runStart, uint32(c.cnt))
}

// buildDict dictionary-encodes a NULL-free string column.
func (c *colData) buildDict(vals *storage.Vec) {
	seen := make(map[string]struct{}, 16)
	for _, s := range vals.Str {
		seen[s] = struct{}{}
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
	c.codes = make([]uint32, c.cnt)
	for p, s := range vals.Str {
		c.codes[p] = codeOf[s]
	}
	c.codeW = codeWidth(uint64(len(c.dict)) - 1)
}

// buildFoR frame-of-reference encodes a NULL-free int-family column whose
// value range fits 32-bit codes.
func (c *colData) buildFoR(vals *storage.Vec) {
	c.forBase = slices.Min(vals.I64)
	c.codes = make([]uint32, c.cnt)
	var maxCode uint64
	for p, x := range vals.I64 {
		d := uint64(x) - uint64(c.forBase)
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
func chooseEncoding(kind types.Kind, vals *storage.Vec) colEncoding {
	n := vals.Len()
	if n == 0 {
		return encRLE // empty columns keep the legacy compressed form
	}
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
	var prev types.Value
	for i := 0; i < n; i++ {
		v := vals.Value(i)
		w := types.VarWidth(v)
		plainBytes += w
		if v.IsNull() {
			hasNull = true
		}
		if i == 0 || !types.Equal(v, prev) {
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
		prev = v
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
func recordEncoding(c *colData, vals *storage.Vec) {
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
	plain := 4 * (c.cnt + 1)
	for p := 0; p < c.cnt; p++ {
		plain += types.VarWidth(vals.Value(p))
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

// colMagic is the version marker of the typed serialized formats. The
// first byte of the offset-indexed format is the RLE flag (0 or 1); plain
// fixed-width, dictionary and FoR columns open with colMagic followed by the
// encoding byte, so a reader dispatches on the first byte.
const colMagic = 0xC2

// fixedWidth reports the bytes one value of kind k takes in a plain disk
// block — 8 for int64, time and float64, 1 for bool — or 0 for the kinds
// stored behind an offset array (strings).
func fixedWidth(k types.Kind) int {
	switch k {
	case types.KindInt64, types.KindTime, types.KindFloat64:
		return 8
	case types.KindBool:
		return 1
	}
	return 0
}

// colIndex is the metadata the disk store caches for ranged cell reads:
// the encoding, where the value bytes begin within the image, and the
// per-encoding index. Fixed-width plain values and dictionary or FoR codes
// sit width bytes apart from dataOff, so a cell is one ranged read with no
// per-row index; plain strings keep a per-row offset array and RLE columns
// their run boundaries.
type colIndex struct {
	enc     colEncoding
	dataOff int // offset of value bytes within the image
	// Fixed-width plain values (8 or 1 bytes) and packed dictionary / FoR
	// codes (1, 2 or 4 bytes): position p lies at dataOff + p*width.
	width int
	// nullBits flags a plain fixed-width column's NULL positions, one bit
	// each (NULL slots hold zero bytes); nil when the column holds no NULL.
	nullBits []byte
	// encPlain strings: position -> value offset within the data section.
	offs []uint32
	// encRLE.
	runStart []uint32
	runOff   []uint32
	// encDict / encFoR: the memory-resident dictionary or frame base.
	forBase int64
	dict    []string
}

// isNull reports whether position p of a fixed-width plain column is NULL.
func (x *colIndex) isNull(p int) bool {
	return x.nullBits != nil && x.nullBits[p>>3]&(1<<(p&7)) != 0
}

// serialize renders the column's disk representation: a small header, the
// index arrays, then the value bytes (metadata before values, like Parquet).
func (c *colData) serialize() []byte {
	img, _ := c.serializeWithIndex()
	return img
}

// appendCodes appends codes packed at width w (little-endian), one loop
// per width.
func appendCodes(dst []byte, codes []uint32, w int) []byte {
	switch w {
	case 1:
		for _, code := range codes {
			dst = append(dst, byte(code))
		}
	case 2:
		for _, code := range codes {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(code))
		}
	default:
		for _, code := range codes {
			dst = binary.LittleEndian.AppendUint32(dst, code)
		}
	}
	return dst
}

// unpackCodes fills dst with the codes packed at width w in src, one loop
// per width.
func unpackCodes(dst []uint32, src []byte, w int) {
	switch w {
	case 1:
		for i, b := range src[:len(dst)] {
			dst[i] = uint32(b)
		}
	case 2:
		src = src[:2*len(dst)]
		for i := range dst {
			dst[i] = uint32(binary.LittleEndian.Uint16(src[2*i:]))
		}
	default:
		src = src[:4*len(dst)]
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(src[4*i:])
		}
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

// appendFixed appends a plain fixed-width column's values, w bytes each
// (little-endian; a bool is one byte, 0 or 1). NULL positions hold zero in
// the typed arrays, so their slots are zero bytes.
func (c *colData) appendFixed(dst []byte, w int) []byte {
	switch {
	case c.kind == types.KindFloat64:
		for _, f := range c.f64 {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	case w == 1:
		for _, x := range c.i64 {
			var b byte
			if x != 0 {
				b = 1
			}
			dst = append(dst, b)
		}
	default:
		for _, x := range c.i64 {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	}
	return dst
}

// decodeFixed fills the typed array from cnt values of width w in data,
// one loop per kind.
func (c *colData) decodeFixed(data []byte, w int) {
	data = data[:c.cnt*w]
	switch {
	case c.kind == types.KindFloat64:
		c.f64 = make([]float64, c.cnt)
		for p := range c.f64 {
			c.f64[p] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*p:]))
		}
	case w == 1:
		c.i64 = make([]int64, c.cnt)
		for p, b := range data {
			c.i64[p] = int64(b)
		}
	default:
		c.i64 = make([]int64, c.cnt)
		for p := range c.i64 {
			c.i64[p] = int64(binary.LittleEndian.Uint64(data[8*p:]))
		}
	}
}

// serializeWithIndex additionally returns the index the disk store caches
// for ranged cell reads.
func (c *colData) serializeWithIndex() ([]byte, colIndex) {
	var out []byte
	put32 := func(v uint32) { out = binary.LittleEndian.AppendUint32(out, v) }
	switch c.enc {
	case encRLE:
		nr := len(c.runStart) - 1
		if nr < 0 {
			nr = 0
		}
		var runData []byte
		runOff := make([]uint32, 0, nr)
		for r := 0; r < nr; r++ {
			runData = binary.LittleEndian.AppendUint32(runData, c.runStart[r+1]-c.runStart[r])
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
		dictBytes := 0
		for _, s := range c.dict {
			dictBytes += 4 + len(s)
		}
		out = make([]byte, 0, 19+c.cnt*c.codeW+dictBytes)
		out = append(out, colMagic, byte(encDict), byte(c.kind))
		put32(uint32(c.cnt))
		put32(uint32(c.codeW))
		put32(uint32(len(c.dict)))
		put32(uint32(c.cnt*c.codeW + dictBytes))
		dataOff := len(out)
		out = appendCodes(out, c.codes, c.codeW)
		for _, s := range c.dict {
			out = types.AppendVar(out, types.NewString(s))
		}
		return out, colIndex{enc: encDict, dataOff: dataOff, width: c.codeW, dict: c.dict}
	case encFoR:
		// [magic, enc, kind] cnt codeW base dataLen | codes
		out = make([]byte, 0, 23+c.cnt*c.codeW)
		out = append(out, colMagic, byte(encFoR), byte(c.kind))
		put32(uint32(c.cnt))
		put32(uint32(c.codeW))
		out = binary.LittleEndian.AppendUint64(out, uint64(c.forBase))
		put32(uint32(c.cnt * c.codeW))
		dataOff := len(out)
		out = appendCodes(out, c.codes, c.codeW)
		return out, colIndex{enc: encFoR, dataOff: dataOff, width: c.codeW, forBase: c.forBase}
	}
	if w := fixedWidth(c.kind); w > 0 {
		// [magic, enc, kind] cnt width nullLen | null bitmap | values
		var bits []byte
		if c.nulls != nil {
			bits = make([]byte, (c.cnt+7)/8)
			for p, null := range c.nulls {
				if null {
					bits[p>>3] |= 1 << (p & 7)
				}
			}
		}
		out = make([]byte, 0, 15+len(bits)+c.cnt*w)
		out = append(out, colMagic, byte(encPlain), byte(c.kind))
		put32(uint32(c.cnt))
		put32(uint32(w))
		put32(uint32(len(bits)))
		out = append(out, bits...)
		dataOff := len(out)
		out = c.appendFixed(out, w)
		return out, colIndex{enc: encPlain, dataOff: dataOff, width: w, nullBits: bits}
	}
	// Strings: [0, kind] offsLen offs dataLen | values, each value
	// [4-byte length][bytes] and a NULL no bytes at all.
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
// decoding the value bytes back into typed arrays. Images opening with
// colMagic are typed (plain fixed-width, dictionary, FoR); the others are
// RLE (leading 1) or plain strings behind an offset array (leading 0),
// where a zero-length value region marks a NULL (types.AppendVar encodes
// NULL as no bytes).
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
		o, e := offs[p], offs[p+1]
		if o == e {
			c.setUncompressed(p, types.Null())
			continue
		}
		c.str[p] = string(data[o+4 : e])
	}
	return c
}

// deserializeEncoded parses the colMagic formats (plain fixed-width,
// dictionary and FoR) back into typed arrays, one loop per kind or code
// width.
func deserializeEncoded(buf []byte) *colData {
	c := &colData{enc: colEncoding(buf[1]), kind: types.Kind(buf[2])}
	off := 3
	get32 := func() uint32 {
		v := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		return v
	}
	c.cnt = int(get32())
	w := int(get32())
	switch c.enc {
	case encPlain:
		nb := int(get32())
		nulls := 0
		if nb > 0 {
			c.nulls = make([]bool, c.cnt)
			bits := buf[off : off+nb]
			for p := range c.nulls {
				if bits[p>>3]&(1<<(p&7)) != 0 {
					c.nulls[p] = true
					nulls++
				}
			}
			off += nb
		}
		c.decodeFixed(buf[off:], w)
		c.dataBytes = (c.cnt - nulls) * w
	case encDict:
		c.codeW = w
		dictLen := int(get32())
		_ = get32() // dataLen
		c.codes = make([]uint32, c.cnt)
		unpackCodes(c.codes, buf[off:], w)
		off += c.cnt * w
		c.dict = make([]string, dictLen)
		for i := 0; i < dictLen; i++ {
			v, n := types.DecodeVar(buf[off:], types.KindString)
			c.dict[i] = v.S
			c.dataBytes += 4 + len(v.S)
			off += n
		}
	case encFoR:
		c.codeW = w
		c.forBase = int64(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		_ = get32() // dataLen
		c.codes = make([]uint32, c.cnt)
		unpackCodes(c.codes, buf[off:], w)
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

// buildBase constructs the merged representation from an image. If sortBy
// is a valid column, positions are ordered by that column's value (ties by
// row_id, the image's order); otherwise they are the image's positions.
func buildBase(kinds []types.Kind, img storage.Image, sortBy schema.ColID, compress bool) *base {
	n := len(img.IDs)
	b := &base{
		rowIDs: slices.Clone(img.IDs),
		pos:    make(map[schema.RowID]int, n),
		cols:   make([]*colData, len(kinds)),
	}
	var perm []int32
	if sortBy >= 0 && int(sortBy) < len(kinds) {
		perm = make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		key := &img.Cols[sortBy]
		slices.SortFunc(perm, func(x, y int32) int {
			if c := types.Compare(key.Value(int(x)), key.Value(int(y))); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
		for p, i := range perm {
			b.rowIDs[p] = img.IDs[i]
		}
	}
	for p, id := range b.rowIDs {
		b.pos[id] = p
	}
	for ci, k := range kinds {
		vals := &img.Cols[ci]
		if perm != nil {
			g := vals.Gather(perm)
			vals = &g
		}
		b.cols[ci] = buildCol(k, vals, compress)
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
