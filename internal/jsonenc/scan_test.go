package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

// TestScannerStringMatchesStdlib: every literal the scanner reads as a
// string it reads as encoding/json does — escapes, surrogate pairs,
// unpaired surrogates and invalid UTF-8 becoming U+FFFD — and every
// literal encoding/json rejects the scanner rejects too.
func TestScannerStringMatchesStdlib(t *testing.T) {
	cases := []string{
		`""`, `"plain"`, `"a\"b\\c\/d"`, `"\b\f\n\r\t"`, `"é東\u0000"`,
		`"😀"`, `"\ud800"`, `"\ud800x"`, `"\ud800A"`, `"\udc00\ud800"`, `"􏿿"`,
		"\"h\xc3\xa9llo\"", "\"bad \xff byte\"", "\"cut \xe6\x9d\"", "\"surrogate \xed\xa0\x80\"", "\"\xef\xbf\xbd\"",
		// Rejected by both.
		`"\'"`, `"\x"`, `"\u12"`, `"\u12g4"`, "\"raw\ncontrol\"", `"unterminated`, `"trailing\`, `x`, ``,
	}
	for _, lit := range cases {
		s := NewScanner([]byte(lit))
		got := s.String()
		ok := s.End()
		var want string
		err := json.Unmarshal([]byte(lit), &want)
		if ok != (err == nil) {
			t.Fatalf("%q: scanner ok=%v, encoding/json err=%v", lit, ok, err)
		}
		if ok && got != want {
			t.Fatalf("%q: scanner %q, encoding/json %q", lit, got, want)
		}
	}
	if err := quick.Check(func(s string) bool {
		sc := NewScanner(AppendString(nil, s))
		got := sc.String()
		var want string
		if err := json.Unmarshal(AppendString(nil, s), &want); err != nil {
			return false
		}
		return sc.End() && got == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestScannerNumbers: integers decode as encoding/json decodes them
// into an int64 or a uint64, range checks included; what is not an
// integer literal does not scan.
func TestScannerNumbers(t *testing.T) {
	cases := []string{"0", "-0", "7", "-7", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "18446744073709551615", "18446744073709551616",
		"01", "-", "1.5", "1e3", "--1", "+1", ""}
	for _, lit := range cases {
		s := NewScanner([]byte(lit))
		gotI := s.Int(64)
		okI := s.End()
		var wantI int64
		if errI := json.Unmarshal([]byte(lit), &wantI); okI != (errI == nil) || (okI && gotI != wantI) {
			t.Fatalf("int %q: scanner %d ok=%v, encoding/json %d err=%v", lit, gotI, okI, wantI, errI)
		}
		s = NewScanner([]byte(lit))
		gotU := s.Uint(64)
		okU := s.End()
		var wantU uint64
		if errU := json.Unmarshal([]byte(lit), &wantU); okU != (errU == nil) || (okU && gotU != wantU) {
			t.Fatalf("uint %q: scanner %d ok=%v, encoding/json %d err=%v", lit, gotU, okU, wantU, errU)
		}
	}
	for _, v := range []int64{math.MinInt32 - 1, math.MaxInt32 + 1} {
		s := NewScanner(strconv.AppendInt(nil, v, 10))
		if s.Int(32); s.End() {
			t.Fatalf("%d scanned as a 32-bit int", v)
		}
	}
}

// TestScannerTimeAndValue: times decode through time.Time's own
// UnmarshalJSON, and Value returns one value's bytes whatever they
// hold, leaving the cursor on what follows.
func TestScannerTimeAndValue(t *testing.T) {
	ts := time.Date(2026, 7, 29, 10, 0, 0, 123456789, time.FixedZone("", 3600))
	s := NewScanner(AppendTime(nil, ts))
	if got := s.Time(); !s.End() || !got.Equal(ts) {
		t.Fatalf("time round trip: %v (ok=%v), want %v", got, s.End(), ts)
	}
	for _, lit := range []string{`"2026-13-01T00:00:00Z"`, `"2026-01-01T00:00:00"`, `null`, `"2026-01-01"`} {
		s := NewScanner([]byte(lit))
		if s.Time(); s.End() {
			t.Fatalf("time %s scanned", lit)
		}
	}
	for _, c := range []struct{ in, value string }{
		{`{"a":[1,{"b":"}]"}],"c":"\"{"}X`, `{"a":[1,{"b":"}]"}],"c":"\"{"}`},
		{`[[],{}],`, `[[],{}]`},
		{`"s\"}",`, `"s\"}"`},
		{`-12.5e3}`, `-12.5e3`},
		{`true]`, `true`},
		{`null`, `null`},
	} {
		s := NewScanner([]byte(c.in))
		if got := string(s.Value()); got != c.value || s.pos != len(c.value) {
			t.Fatalf("Value(%s) = %s at %d, want %s", c.in, got, s.pos, c.value)
		}
	}
	for _, in := range []string{`{"a":1`, `[1,2`, `"open`, ``, `,`, `{"a":"\"}`} {
		if s := NewScanner([]byte(in)); s.Value() != nil || !s.bad {
			t.Fatalf("Value(%s) did not fail", in)
		}
	}
}
