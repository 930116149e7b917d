// Package jsonenc provides allocation-free append-style JSON encoding
// helpers for the hand-rolled fast paths of the journal codecs and the
// HTTP responses. The
// reflection-based encoding/json.Marshal costs ~2µs per journal entry
// on the write path — more than the token move it persists — so the
// hot, fixed-shape records (store.Entry, runtime.JournalRecord) are
// encoded by hand and these helpers keep the string/time handling in
// one audited place. The fast encoders only ever have to produce JSON
// the standard decoder reads back to an equal value, which is what
// their equivalence tests pin. Scanner (scan.go) is the decode side,
// for journal replay: it reads what these helpers write and defers to
// encoding/json for anything else.
//
// Responses are held to a stricter rule: a hand-encoded body is byte
// for byte what json.Encoder.Encode writes, so AppendWireString and
// AppendWireTime reproduce encoding/json's HTML-safe escaping and
// time.Time.MarshalJSON's range checks. The journal keeps AppendString
// and AppendTime, whose bytes are already on disk.
package jsonenc

import (
	"errors"
	"time"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal — quoted, with the
// quote, backslash and control characters escaped. Valid UTF-8 passes
// through verbatim (JSON strings are UTF-8); invalid UTF-8 is passed
// through as well, which encoding/json's decoder tolerates (it
// replaces the bad bytes with U+FFFD, exactly as its own encoder
// would have).
func AppendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		buf = append(buf, s[start:i]...)
		switch c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		start = i + 1
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// AppendTime appends t as a quoted RFC 3339 timestamp with nanosecond
// precision — the same layout time.Time.MarshalJSON produces, minus
// its year-range check (journal timestamps come from clocks, not user
// input).
func AppendTime(buf []byte, t time.Time) []byte {
	buf = append(buf, '"')
	buf = t.AppendFormat(buf, time.RFC3339Nano)
	return append(buf, '"')
}

// AppendWireString appends s exactly as encoding/json encodes a
// string: the AppendString escapes plus \b and \f, the HTML-sensitive
// <, > and & as \u003c, \u003e and \u0026, U+2028 and U+2029 as
// \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
func AppendWireString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if wireSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			buf = append(buf, s[start:i]...)
			switch c {
			case '"', '\\':
				buf = append(buf, '\\', c)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// wireSafe marks the bytes AppendWireString copies through as they
// are: printable ASCII other than the quote, the backslash and the
// HTML characters <, > and &.
var wireSafe = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

var (
	errWireYear = errors.New("jsonenc: time year outside of range [0,9999]")
	errWireZone = errors.New("jsonenc: time zone hour outside of range [0,23]")
)

// AppendWireTime appends t exactly as time.Time.MarshalJSON does and
// fails where it fails: on a year outside [0,9999] or a zone offset of
// 24 hours or more, neither of which RFC 3339 can express.
func AppendWireTime(buf []byte, t time.Time) ([]byte, error) {
	n0 := len(buf)
	buf = AppendTime(buf, t)
	switch end := len(buf) - 1; {
	case buf[n0+1+len("9999")] != '-':
		return buf[:n0], errWireYear
	case buf[end-1] != 'Z':
		c := buf[end-len("Z07:00")]
		hh := 10*(buf[end-len("07:00")]-'0') + buf[end-len("7:00")] - '0'
		if ('0' <= c && c <= '9') || hh >= 24 {
			return buf[:n0], errWireZone
		}
	}
	return buf, nil
}
