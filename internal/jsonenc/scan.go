package jsonenc

// The decode-side twin of AppendString and AppendTime: a scanner for
// the compact JSON the journal codecs write, used by the replay
// decoders of store.Entry and runtime.JournalRecord. It accepts a
// subset of JSON — no whitespace between tokens, no null where a
// value is expected — and whatever it does accept it decodes exactly
// as encoding/json would into the same Go type. Anything outside that
// subset makes the scan fail, and the caller hands the whole document
// to encoding/json instead, so the scanner never has to reproduce an
// error or a lenient corner of the standard decoder.
//
// Failure is sticky: the first mismatch moves the cursor to the end of
// the input, every later call returns a zero value, and End reports
// false. Decoders can therefore read a whole object and check once.

import (
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Scanner reads JSON tokens from a byte slice. The zero value scans an
// empty input.
type Scanner struct {
	buf []byte
	pos int
	bad bool
}

// NewScanner returns a scanner positioned at the start of b.
func NewScanner(b []byte) Scanner { return Scanner{buf: b} }

// Fail marks the scan failed — for a decoder that meets a key or a
// shape it does not handle.
func (s *Scanner) Fail() {
	s.bad = true
	s.pos = len(s.buf)
}

// End reports whether the scan succeeded and consumed the whole input.
func (s *Scanner) End() bool { return !s.bad && s.pos == len(s.buf) }

// Consume advances past lit if the input continues with it, and
// reports whether it did. A mismatch is not a failure.
func (s *Scanner) Consume(lit string) bool {
	if len(s.buf)-s.pos < len(lit) || string(s.buf[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// Expect advances past lit, failing the scan if the input does not
// continue with it.
func (s *Scanner) Expect(lit string) {
	if !s.Consume(lit) {
		s.Fail()
	}
}

// Object consumes the '{' opening an object and reports whether a
// member follows; an empty object is consumed whole and reports false.
func (s *Scanner) Object() bool { return s.open('{', '}') }

// Array consumes the '[' opening an array and reports whether an
// element follows; an empty array is consumed whole and reports false.
func (s *Scanner) Array() bool { return s.open('[', ']') }

func (s *Scanner) open(open, close byte) bool {
	if s.pos >= len(s.buf) || s.buf[s.pos] != open {
		s.Fail()
		return false
	}
	s.pos++
	if s.pos < len(s.buf) && s.buf[s.pos] == close {
		s.pos++
		return false
	}
	return true
}

// More is called after each member or element: it consumes a ',' and
// reports true, or consumes close ('}' or ']') and reports false.
func (s *Scanner) More(close byte) bool {
	if s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ',':
			s.pos++
			return true
		case close:
			s.pos++
			return false
		}
	}
	s.Fail()
	return false
}

// Key reads an object key and its ':' and returns the key's bytes,
// which alias the input — for matching against a struct's field
// names. A key holding an escape or a control character fails the
// scan: encoding/json would unescape it, then match it case-folded.
func (s *Scanner) Key() []byte {
	b, i := s.buf, s.pos
	if i >= len(b) || b[i] != '"' {
		s.Fail()
		return nil
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			if j+1 < len(b) && b[j+1] == ':' {
				s.pos = j + 2
				return b[i+1 : j]
			}
			s.Fail()
			return nil
		case c == '\\' || c < 0x20:
			s.Fail()
			return nil
		}
	}
	s.Fail()
	return nil
}

// MapKey reads an object key and its ':' as a map key: a string,
// unescaped like any other.
func (s *Scanner) MapKey() string {
	k := s.String()
	s.Expect(":")
	return k
}

// String reads a string literal and returns its unescaped value — a
// fresh copy, never aliasing the input. Like encoding/json it turns
// each byte of invalid UTF-8, and each unpaired surrogate escape, into
// U+FFFD.
func (s *Scanner) String() string {
	b, i := s.buf, s.pos
	if i >= len(b) || b[i] != '"' {
		s.Fail()
		return ""
	}
	i++
	start := i
	for ; i < len(b); i++ {
		c := b[i]
		if c == '"' {
			s.pos = i + 1
			return string(b[start:i])
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
	}
	return s.unquote(start, i)
}

// unquote finishes a string whose plain prefix b[start:i] is copied
// through and whose byte at i needs decoding.
func (s *Scanner) unquote(start, i int) string {
	b := s.buf
	out := make([]byte, i-start, i-start+16)
	copy(out, b[start:i])
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			s.pos = i + 1
			return string(out)
		case c < 0x20:
			s.Fail()
			return ""
		case c == '\\':
			if i+1 >= len(b) {
				s.Fail()
				return ""
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(b[i+2:])
				if r < 0 {
					s.Fail()
					return ""
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if r2 := hex4Escape(b[i:]); r2 >= 0 {
						if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
							out = utf8.AppendRune(out, dec)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				s.Fail()
				return ""
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, r)
			} else {
				out = append(out, b[i:i+size]...)
			}
			i += size
		}
	}
	s.Fail()
	return ""
}

// hex4 decodes the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// hex4Escape decodes a \uXXXX escape at the start of b, or returns -1.
func hex4Escape(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	return hex4(b[2:])
}

// Uint reads an unsigned integer that fits in bits bits. A sign, a
// fraction or an exponent fails the scan, as does a leading zero.
func (s *Scanner) Uint(bits int) uint64 {
	v, neg := s.digits()
	if neg || (bits < 64 && v >= 1<<bits) {
		s.Fail()
		return 0
	}
	return v
}

// Int reads a signed integer that fits in bits bits. A fraction or an
// exponent fails the scan, as does a leading zero.
func (s *Scanner) Int(bits int) int64 {
	v, neg := s.digits()
	limit := uint64(1) << (bits - 1)
	switch {
	case neg && v <= limit:
		return -int64(v)
	case !neg && v < limit:
		return int64(v)
	}
	s.Fail()
	return 0
}

// digits reads an optional '-' and the integer part of a JSON number
// as a magnitude. It leaves a following '.', 'e' or digit in place; the
// caller's next token check rejects it.
func (s *Scanner) digits() (v uint64, neg bool) {
	b, i := s.buf, s.pos
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (1<<64-1-d)/10 {
			s.Fail()
			return 0, false
		}
		v = v*10 + d
	}
	if i == start || (b[start] == '0' && i > start+1) {
		s.Fail()
		return 0, false
	}
	s.pos = i
	return v, neg
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	switch {
	case s.Consume("true"):
		return true
	case s.Consume("false"):
		return false
	}
	s.Fail()
	return false
}

// Time reads a string literal as time.Time.UnmarshalJSON does — on its
// raw bytes, escapes and all, which is what encoding/json hands it.
func (s *Scanner) Time() time.Time {
	start := s.pos
	end := s.skipString(start)
	var t time.Time
	if end < 0 || t.UnmarshalJSON(s.buf[start:end]) != nil {
		s.Fail()
		return time.Time{}
	}
	s.pos = end
	return t
}

// skipString returns the index just past the string literal starting
// at i, or -1 if there is none: an unterminated literal, a raw control
// character or an invalid escape.
func (s *Scanner) skipString(i int) int {
	b := s.buf
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		case c == '\\':
			if i+1 >= len(b) {
				return -1
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if hex4(b[i+2:]) < 0 {
					return -1
				}
				i += 5
			default:
				return -1
			}
		}
	}
	return -1
}

// Value skips one value and returns its bytes, which alias the input.
// The skip is structural — strings, and brackets to their match — and
// does not validate: a caller that needs the value decodes it, and a
// malformed value fails there.
func (s *Scanner) Value() []byte {
	b, start := s.buf, s.pos
	if start >= len(b) {
		s.Fail()
		return nil
	}
	i := start
	switch b[i] {
	case '"':
		i = s.skipString(i)
	case '{', '[':
		// Inside a container only the brackets and the strings that
		// may hide them matter; a string ends at the first quote no
		// backslash escapes.
		depth := 0
	scan:
		for i < len(b) {
			c := b[i]
			i++
			switch c {
			case '"':
				for i < len(b) && b[i] != '"' {
					if b[i] == '\\' {
						i++
					}
					i++
				}
				i++
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					break scan
				}
			}
		}
		if depth != 0 || i > len(b) {
			i = -1
		}
	default:
		for i < len(b) && !delim[b[i]] {
			i++
		}
		if i == start {
			i = -1
		}
	}
	if i < 0 {
		s.Fail()
		return nil
	}
	s.pos = i
	return b[start:i]
}

// delim marks the bytes that end a bare literal (a number, true, false
// or null): structural characters and JSON whitespace.
var delim = [256]bool{',': true, '}': true, ']': true, ':': true, ' ': true, '\t': true, '\r': true, '\n': true}
