package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary encodings below are shared by the in-memory and on-disk row and
// column formats (§4.1). Fixed-width kinds occupy their FixedWidth() bytes in
// little-endian order. Variable-width kinds (strings) have two encodings:
//
//   - the 12-byte row slot (4-byte length + 8 bytes holding the string
//     inline, or the offset of its bytes in the row's tail), written by
//     PutFixed; and
//   - the inline disk/column encoding (4-byte length + raw bytes), written
//     by AppendVar.
//
// A row-format byte array is its fixed slots followed by a tail holding the
// strings longer than 8 bytes. The paper stores an 8-byte pointer in each
// such slot; raw pointers inside byte arrays are unsafe under Go's GC, so a
// slot stores an offset into its own array instead, and each array owns its
// strings: dropping it frees them.

// PutFixed encodes v into its slot at row[off:], which must hold
// v.K.FixedWidth() bytes. A string longer than 8 bytes is appended to row
// and its slot records where; the possibly extended row is returned.
// Callers that size row's capacity with TailWidth never reallocate.
func PutFixed(row []byte, off int, v Value) []byte {
	dst := row[off:]
	switch v.K {
	case KindInt64, KindTime:
		binary.LittleEndian.PutUint64(dst, uint64(v.I))
	case KindFloat64:
		binary.LittleEndian.PutUint64(dst, math.Float64bits(v.F))
	case KindBool:
		if v.I != 0 {
			dst[0] = 1
		} else {
			dst[0] = 0
		}
	case KindString:
		binary.LittleEndian.PutUint32(dst, uint32(len(v.S)))
		if len(v.S) <= 8 {
			copy(dst[4:12], v.S)
			return row
		}
		binary.LittleEndian.PutUint64(dst[4:12], uint64(len(row)))
		return append(row, v.S...)
	case KindNull:
	default:
		panic(fmt.Sprintf("PutFixed: unsupported kind %v", v.K))
	}
	return row
}

// TailWidth reports the bytes PutFixed appends to a row for v: a string's
// length when it does not fit its slot, else 0.
func TailWidth(v Value) int {
	if v.K == KindString && len(v.S) > 8 {
		return len(v.S)
	}
	return 0
}

// StringTail returns the tail bytes of the string slot at row[off:]: the
// string itself when it is longer than 8 bytes, else nil.
func StringTail(row []byte, off int) []byte {
	n := uint64(binary.LittleEndian.Uint32(row[off:]))
	if n <= 8 {
		return nil
	}
	at := binary.LittleEndian.Uint64(row[off+4:])
	return row[at : at+n]
}

// CopyString rewrites the string slot at dst[off:], already copied from
// src, to point into dst: a long string's bytes move from src's tail to the
// end of dst. It returns the extended dst.
func CopyString(dst, src []byte, off int) []byte {
	tail := StringTail(src, off)
	if tail == nil {
		return dst
	}
	binary.LittleEndian.PutUint64(dst[off+4:], uint64(len(dst)))
	return append(dst, tail...)
}

// GetFixed decodes the value of kind k whose slot is at row[off:],
// resolving a long string from the row's tail.
func GetFixed(row []byte, off int, k Kind) Value {
	src := row[off:]
	switch k {
	case KindInt64:
		return NewInt64(int64(binary.LittleEndian.Uint64(src)))
	case KindTime:
		return NewTimeMicros(int64(binary.LittleEndian.Uint64(src)))
	case KindFloat64:
		return NewFloat64(math.Float64frombits(binary.LittleEndian.Uint64(src)))
	case KindBool:
		return NewBool(src[0] != 0)
	case KindString:
		n := int(binary.LittleEndian.Uint32(src))
		if n <= 8 {
			return NewString(string(src[4 : 4+n]))
		}
		return NewString(string(StringTail(row, off)))
	}
	return Null()
}

// AppendVar appends the inline (disk/column) encoding of v to dst and
// returns the extended slice. Fixed-width kinds append FixedWidth() bytes;
// strings append a 4-byte length followed by the raw bytes (§4.1.2).
func AppendVar(dst []byte, v Value) []byte {
	switch v.K {
	case KindInt64, KindTime:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v.I))
		return append(dst, b[:]...)
	case KindFloat64:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
		return append(dst, b[:]...)
	case KindBool:
		if v.I != 0 {
			return append(dst, 1)
		}
		return append(dst, 0)
	case KindString:
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(len(v.S)))
		dst = append(dst, b[:]...)
		return append(dst, v.S...)
	case KindNull:
		return dst
	}
	panic(fmt.Sprintf("AppendVar: unsupported kind %v", v.K))
}

// DecodeVar decodes one inline-encoded value of kind k from src, returning
// the value and the number of bytes consumed.
func DecodeVar(src []byte, k Kind) (Value, int) {
	switch k {
	case KindInt64:
		return NewInt64(int64(binary.LittleEndian.Uint64(src))), 8
	case KindTime:
		return NewTimeMicros(int64(binary.LittleEndian.Uint64(src))), 8
	case KindFloat64:
		return NewFloat64(math.Float64frombits(binary.LittleEndian.Uint64(src))), 8
	case KindBool:
		return NewBool(src[0] != 0), 1
	case KindString:
		n := int(binary.LittleEndian.Uint32(src))
		return NewString(string(src[4 : 4+n])), 4 + n
	}
	return Null(), 0
}

// VarWidth reports the number of bytes AppendVar would use for v.
func VarWidth(v Value) int {
	switch v.K {
	case KindInt64, KindTime, KindFloat64:
		return 8
	case KindBool:
		return 1
	case KindString:
		return 4 + len(v.S)
	}
	return 0
}
