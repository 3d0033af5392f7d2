// Package types defines the value model shared by every storage layout and
// operator in Proteus: typed cell values, comparison, hashing, and the
// fixed/variable-width binary encodings used by the row and column stores.
package types

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the column types supported by Proteus. The set mirrors the
// types exercised by the paper's workloads (TPC-C/TPC-H/YCSB/Twitter):
// integers, decimals (as float64), strings, and timestamps.
type Kind uint8

const (
	// KindNull is the zero Kind; a Value of this kind represents SQL NULL.
	KindNull Kind = iota
	// KindInt64 is a 64-bit signed integer column.
	KindInt64
	// KindFloat64 is a double-precision column (used for decimals).
	KindFloat64
	// KindString is a variable-length string column.
	KindString
	// KindTime is a timestamp column, stored as Unix microseconds.
	KindTime
	// KindBool is a boolean column.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt64:
		return "BIGINT"
	case KindFloat64:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindTime:
		return "TIMESTAMP"
	case KindBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// FixedWidth reports the number of bytes the kind occupies in the in-memory
// row format. Variable-size kinds (strings) use a 12-byte slot: 4 bytes of
// length followed by 8 bytes that either inline the data (if it fits) or
// hold the offset of its bytes in the row's own tail, mirroring §4.1.1 of
// the paper.
func (k Kind) FixedWidth() int {
	switch k {
	case KindInt64, KindFloat64, KindTime:
		return 8
	case KindBool:
		return 1
	case KindString:
		return StringSlotWidth
	case KindNull:
		return 0
	}
	return 0
}

// StringSlotWidth is the row-format slot size for variable-length data:
// a 4-byte length plus 8 bytes of inline data or arena reference.
const StringSlotWidth = 12

// Value is a single typed cell value. The zero Value is NULL.
type Value struct {
	K Kind
	I int64   // payload for Int64, Time (unix micros), Bool (0/1)
	F float64 // payload for Float64
	S string  // payload for String
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewInt64 returns an integer value.
func NewInt64(v int64) Value { return Value{K: KindInt64, I: v} }

// NewFloat64 returns a double value.
func NewFloat64(v float64) Value { return Value{K: KindFloat64, F: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{K: KindString, S: v} }

// NewTime returns a timestamp value.
func NewTime(t time.Time) Value { return Value{K: KindTime, I: t.UnixMicro()} }

// NewTimeMicros returns a timestamp value from Unix microseconds.
func NewTimeMicros(us int64) Value { return Value{K: KindTime, I: us} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{K: KindBool, I: i}
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Int returns the integer payload (valid for Int64, Time and Bool kinds).
func (v Value) Int() int64 { return v.I }

// Float returns the value as a float64, coercing integers.
func (v Value) Float() float64 {
	switch v.K {
	case KindFloat64:
		return v.F
	case KindInt64, KindTime, KindBool:
		return float64(v.I)
	}
	return 0
}

// Str returns the string payload.
func (v Value) Str() string { return v.S }

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.I != 0 }

// Time returns the timestamp payload.
func (v Value) Time() time.Time { return time.UnixMicro(v.I) }

// String renders the value for display and debugging.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt64:
		return strconv.FormatInt(v.I, 10)
	case KindFloat64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindTime:
		return time.UnixMicro(v.I).UTC().Format(time.RFC3339)
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Compare orders two values. NULL sorts before every non-NULL value.
// Numeric kinds compare numerically across Int64/Float64/Time; strings
// compare lexicographically. Comparing incompatible kinds falls back to
// comparing the kind tags so that any pair of values has a total order.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.K == KindString && b.K == KindString {
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
		return 0
	}
	if numericKind(a.K) && numericKind(b.K) {
		if a.K == KindFloat64 || b.K == KindFloat64 {
			af, bf := a.Float(), b.Float()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			}
			return 0
		}
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
	switch {
	case a.K < b.K:
		return -1
	case a.K > b.K:
		return 1
	}
	return 0
}

func numericKind(k Kind) bool {
	return k == KindInt64 || k == KindFloat64 || k == KindTime || k == KindBool
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Hash returns a 64-bit FNV-1a hash of the value, used by hash joins and
// hash aggregation. Values that compare Equal hash identically.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511627776003
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	switch v.K {
	case KindNull:
		mix(0)
	case KindString:
		mix(1)
		for i := 0; i < len(v.S); i++ {
			mix(v.S[i])
		}
	case KindFloat64:
		mix(2)
		// Hash the numeric value so 2.0 and int64(2) hash alike.
		f := v.F
		if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			u := uint64(int64(f))
			for i := 0; i < 8; i++ {
				mix(byte(u >> (8 * i)))
			}
		} else {
			u := math.Float64bits(f)
			for i := 0; i < 8; i++ {
				mix(byte(u >> (8 * i)))
			}
		}
	default:
		mix(2)
		u := uint64(v.I)
		for i := 0; i < 8; i++ {
			mix(byte(u >> (8 * i)))
		}
	}
	return h
}

// Add returns the numeric sum of two values, used by SUM aggregation.
// NULLs are treated as the additive identity.
func Add(a, b Value) Value {
	if a.IsNull() {
		return b
	}
	if b.IsNull() {
		return a
	}
	if a.K == KindFloat64 || b.K == KindFloat64 {
		return NewFloat64(a.Float() + b.Float())
	}
	return NewInt64(a.I + b.I)
}

// Parse converts a literal string into a Value of the given kind.
func Parse(k Kind, s string) (Value, error) {
	switch k {
	case KindInt64:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("parse int %q: %w", s, err)
		}
		return NewInt64(i), nil
	case KindFloat64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null(), fmt.Errorf("parse float %q: %w", s, err)
		}
		return NewFloat64(f), nil
	case KindString:
		return NewString(s), nil
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Null(), fmt.Errorf("parse bool %q: %w", s, err)
		}
		return NewBool(b), nil
	case KindTime:
		if t, err := time.Parse(time.RFC3339, s); err == nil {
			return NewTime(t), nil
		}
		if t, err := time.Parse("2006-01-02", s); err == nil {
			return NewTime(t), nil
		}
		if t, err := time.Parse("2006/01", s); err == nil {
			return NewTime(t), nil
		}
		return Null(), fmt.Errorf("parse time %q: unrecognized format", s)
	}
	return Null(), fmt.Errorf("cannot parse into kind %v", k)
}
