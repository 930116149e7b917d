package jsonenc

import (
	"encoding/json"
	"testing"
	"testing/quick"
	"time"
)

// TestAppendStringMatchesStdlib pins the contract: whatever the fast
// encoder emits, the standard decoder reads back as the original
// string.
func TestAppendStringMatchesStdlib(t *testing.T) {
	cases := []string{
		"",
		"plain",
		`with "quotes" and \backslashes\`,
		"tabs\tnewlines\nreturns\r",
		"control \x00\x01\x1f bytes",
		"unicode: héllo wörld — 東京 🗼",
		"mixed \"q\" \n \x02 ü",
	}
	for _, s := range cases {
		out := AppendString(nil, s)
		var got string
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("decode %q output %s: %v", s, out, err)
		}
		if got != s {
			t.Fatalf("round trip of %q = %q", s, got)
		}
	}
}

func TestAppendTimeMatchesStdlib(t *testing.T) {
	for _, tt := range []time.Time{
		time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC),
		time.Date(2026, 7, 29, 13, 45, 6, 123456789, time.FixedZone("CET", 3600)),
		time.Time{},
	} {
		want, err := json.Marshal(tt)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendTime(nil, tt)
		if string(got) != string(want) {
			t.Fatalf("AppendTime(%v) = %s, want %s", tt, got, want)
		}
		var back time.Time
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if !back.Equal(tt) {
			t.Fatalf("round trip of %v = %v", tt, back)
		}
	}
}

// stdlibString is what json.Encoder.Encode writes for s, minus the
// trailing newline: the bytes AppendWireString must reproduce.
func stdlibString(t testing.TB, s string) string {
	t.Helper()
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// wireStringSeeds are the strings where encoding/json's escaping
// departs from the journal's: invalid UTF-8 (a stray continuation
// byte, a truncated sequence, an encoded surrogate), the HTML
// characters, U+2028/U+2029, the short escapes and every control
// byte, DEL included.
func wireStringSeeds() []string {
	seeds := []string{
		"", "plain", "\xff", "a\x80b", "\xe2\x80", "\xed\xa0\x80", "ok\xc3",
		"<script>alert('x')</script>", "a&b>c<d", "\u2028", "line\u2029sep",
		"\b\f\n\r\t", `"quoted" \back\`, "héllo 東京 🗼", "\x7f", "\u2027\u202a",
	}
	var ctl []byte
	for c := byte(0); c < 0x20; c++ {
		ctl = append(ctl, c)
		seeds = append(seeds, string([]byte{'x', c, 'y'}))
	}
	return append(seeds, string(ctl)+"\x7f")
}

func TestAppendWireStringMatchesStdlib(t *testing.T) {
	for _, s := range wireStringSeeds() {
		if got, want := string(AppendWireString(nil, s)), stdlibString(t, s); got != want {
			t.Fatalf("AppendWireString(%q) = %s, want %s", s, got, want)
		}
	}
	prop := func(s string, raw []byte, prefix []byte) bool {
		for _, in := range []string{s, string(raw)} {
			got := AppendWireString(prefix, in)
			if string(got[:len(prefix)]) != string(prefix) || string(got[len(prefix):]) != stdlibString(t, in) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzWireString: for any input, AppendWireString writes what
// encoding/json writes.
func FuzzWireString(f *testing.F) {
	for _, s := range wireStringSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := string(AppendWireString(nil, s)), stdlibString(t, s); got != want {
			t.Fatalf("AppendWireString(%q) = %s, want %s", s, got, want)
		}
	})
}

func TestAppendWireTimeMatchesStdlib(t *testing.T) {
	for _, tt := range []time.Time{
		time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC),
		time.Date(2026, 7, 29, 13, 45, 6, 123456789, time.FixedZone("CET", 3600)),
		time.Date(1999, 12, 31, 23, 59, 59, 1000, time.FixedZone("", -(23*3600+59*60))),
		time.Date(2000, 1, 1, 0, 0, 0, 0, time.FixedZone("odd", 5*3600+30*60+17)),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Time{},
		// MarshalJSON fails on each of these.
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2000, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2000, 1, 1, 0, 0, 0, 0, time.FixedZone("", -100*3600)),
	} {
		want, wantErr := json.Marshal(tt)
		prefix := []byte("x")
		got, err := AppendWireTime(prefix, tt)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendWireTime(%v) err = %v, MarshalJSON err = %v", tt, err, wantErr)
		}
		if err != nil {
			if string(got) != "x" {
				t.Fatalf("AppendWireTime(%v) failed but left %q", tt, got)
			}
			continue
		}
		if string(got) != "x"+string(want) {
			t.Fatalf("AppendWireTime(%v) = %s, want x%s", tt, got, want)
		}
	}
}
