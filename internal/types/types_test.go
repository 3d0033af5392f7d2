package types

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:    "NULL",
		KindInt64:   "BIGINT",
		KindFloat64: "DOUBLE",
		KindString:  "VARCHAR",
		KindTime:    "TIMESTAMP",
		KindBool:    "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestFixedWidth(t *testing.T) {
	if w := KindInt64.FixedWidth(); w != 8 {
		t.Errorf("int width = %d, want 8", w)
	}
	if w := KindString.FixedWidth(); w != StringSlotWidth {
		t.Errorf("string width = %d, want %d", w, StringSlotWidth)
	}
	if w := KindBool.FixedWidth(); w != 1 {
		t.Errorf("bool width = %d, want 1", w)
	}
}

func TestCompareNumeric(t *testing.T) {
	if Compare(NewInt64(1), NewInt64(2)) != -1 {
		t.Error("1 < 2 failed")
	}
	if Compare(NewInt64(2), NewInt64(2)) != 0 {
		t.Error("2 == 2 failed")
	}
	if Compare(NewFloat64(2.5), NewInt64(2)) != 1 {
		t.Error("2.5 > 2 failed")
	}
	if Compare(NewInt64(2), NewFloat64(2.0)) != 0 {
		t.Error("2 == 2.0 failed")
	}
}

func TestCompareString(t *testing.T) {
	if Compare(NewString("apple"), NewString("banana")) != -1 {
		t.Error("apple < banana failed")
	}
	if Compare(NewString("x"), NewString("x")) != 0 {
		t.Error("x == x failed")
	}
}

func TestCompareNull(t *testing.T) {
	if Compare(Null(), NewInt64(0)) != -1 {
		t.Error("NULL should sort before 0")
	}
	if Compare(NewString(""), Null()) != 1 {
		t.Error("empty string should sort after NULL")
	}
	if Compare(Null(), Null()) != 0 {
		t.Error("NULL == NULL failed")
	}
}

func TestHashEqualValuesAgree(t *testing.T) {
	a, b := NewInt64(42), NewFloat64(42.0)
	if !Equal(a, b) {
		t.Fatal("42 should equal 42.0")
	}
	if a.Hash() != b.Hash() {
		t.Error("equal values must hash identically")
	}
}

func TestAdd(t *testing.T) {
	if got := Add(NewInt64(2), NewInt64(3)); got.Int() != 5 {
		t.Errorf("2+3 = %v", got)
	}
	if got := Add(NewInt64(2), NewFloat64(0.5)); got.Float() != 2.5 {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := Add(Null(), NewInt64(7)); got.Int() != 7 {
		t.Errorf("NULL+7 = %v", got)
	}
}

func TestParse(t *testing.T) {
	v, err := Parse(KindInt64, "123")
	if err != nil || v.Int() != 123 {
		t.Errorf("Parse int: %v %v", v, err)
	}
	v, err = Parse(KindFloat64, "1.5")
	if err != nil || v.Float() != 1.5 {
		t.Errorf("Parse float: %v %v", v, err)
	}
	v, err = Parse(KindTime, "2021-06-01")
	if err != nil || v.Time().Year() != 2021 {
		t.Errorf("Parse time: %v %v", v, err)
	}
	if _, err = Parse(KindInt64, "abc"); err == nil {
		t.Error("expected error parsing garbage int")
	}
	if _, err = Parse(KindTime, "not-a-date"); err == nil {
		t.Error("expected error parsing garbage time")
	}
}

func TestValueString(t *testing.T) {
	if s := NewBool(true).String(); s != "true" {
		t.Errorf("bool string = %q", s)
	}
	if s := Null().String(); s != "NULL" {
		t.Errorf("null string = %q", s)
	}
	if s := NewTime(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)).String(); s != "2021-06-01T00:00:00Z" {
		t.Errorf("time string = %q", s)
	}
}

func TestFixedRoundTripInt(t *testing.T) {
	buf := PutFixed(make([]byte, 8), 0, NewInt64(-99))
	got := GetFixed(buf, 0, KindInt64)
	if got.Int() != -99 {
		t.Errorf("round trip = %v", got)
	}
}

func TestFixedRoundTripStringInline(t *testing.T) {
	buf := PutFixed(make([]byte, StringSlotWidth), 0, NewString("short"))
	if len(buf) != StringSlotWidth {
		t.Error("short string should inline, not grow the row")
	}
	if got := GetFixed(buf, 0, KindString); got.Str() != "short" {
		t.Errorf("round trip = %q", got.Str())
	}
}

// A long string lands in the row's tail, and CopyString carries it into a
// new row whose own tail it then lives in.
func TestFixedRoundTripStringTail(t *testing.T) {
	long := "this string exceeds eight bytes"
	v := NewString(long)
	buf := make([]byte, 4+StringSlotWidth, 4+StringSlotWidth+TailWidth(v))
	buf = PutFixed(buf, 4, v)
	if len(buf) != 4+StringSlotWidth+len(long) || cap(buf) != len(buf) {
		t.Errorf("row is %d bytes (cap %d), want %d", len(buf), cap(buf), 4+StringSlotWidth+len(long))
	}
	if got := GetFixed(buf, 4, KindString); got.Str() != long {
		t.Errorf("round trip = %q", got.Str())
	}
	moved := make([]byte, 8+StringSlotWidth)
	copy(moved[4:], buf[4:4+StringSlotWidth])
	moved = CopyString(moved, buf, 4)
	buf[len(buf)-1] = 'X' // the copy owns its bytes
	if got := GetFixed(moved, 4, KindString); got.Str() != long {
		t.Errorf("copied = %q", got.Str())
	}
}

func TestVarRoundTrip(t *testing.T) {
	vals := []Value{
		NewInt64(7), NewFloat64(math.Pi), NewString("hello world"),
		NewBool(true), NewTimeMicros(1622505600000000),
	}
	var buf []byte
	for _, v := range vals {
		buf = AppendVar(buf, v)
	}
	off := 0
	for _, want := range vals {
		got, n := DecodeVar(buf[off:], want.K)
		if !Equal(got, want) {
			t.Errorf("decode = %v, want %v", got, want)
		}
		if n != VarWidth(want) {
			t.Errorf("width = %d, want %d", n, VarWidth(want))
		}
		off += n
	}
	if off != len(buf) {
		t.Errorf("consumed %d of %d bytes", off, len(buf))
	}
}

// Property: Compare is a total order — antisymmetric and transitive over
// random int/float/string values.
func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(NewInt64(a), NewInt64(b)) == -Compare(NewInt64(b), NewInt64(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return Compare(NewString(a), NewString(b)) == -Compare(NewString(b), NewString(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// Property: fixed encoding round-trips arbitrary strings, inline or through
// the row's tail.
func TestFixedStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		buf := PutFixed(make([]byte, StringSlotWidth), 0, NewString(s))
		return GetFixed(buf, 0, KindString).Str() == s && len(buf) == StringSlotWidth+TailWidth(NewString(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: var encoding round-trips arbitrary int64 and float64 values.
func TestVarRoundTripProperty(t *testing.T) {
	f := func(i int64) bool {
		v, n := DecodeVar(AppendVar(nil, NewInt64(i)), KindInt64)
		return v.Int() == i && n == 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(x float64) bool {
		v, _ := DecodeVar(AppendVar(nil, NewFloat64(x)), KindFloat64)
		return v.Float() == x || (math.IsNaN(x) && math.IsNaN(v.Float()))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// Property: hashing is deterministic and equal values collide.
func TestHashDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := NewInt64(r.Int63())
		if v.Hash() != v.Hash() {
			t.Fatal("hash not deterministic")
		}
	}
}
