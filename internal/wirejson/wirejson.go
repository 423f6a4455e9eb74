// Package wirejson scans the canonical subset of JSON that the serving
// path's clients send and the journal writes, in one forward pass over
// the bytes: JSON whitespace, objects whose keys are matched byte for
// byte against the keys the caller knows and appear at most once (or
// against a fixed layout of literal bytes), arrays, strings of
// printable ASCII with no escapes, integers that fit an int64, and
// numbers where the caller reads a float64. It is the whole lexical
// side of the one-pass decoders (internal/job's instance parser,
// internal/server's request, batch and stream-arrival parsers,
// internal/journal's record scanner); they add the grammar, this
// package owns the byte rules.
//
// A Scanner never guesses. On the first byte outside the subset it
// fails, and stays failed: every later call returns a zero value, so a
// parser can read straight through and check Failed once. A caller
// that sees a failure hands the same bytes to encoding/json, which
// gives the full language its usual meaning (escapes, non-ASCII text,
// null, floats where an integer is read, case-insensitive keys) and its
// usual errors.
//
// The package also writes what encoding/json writes for the values
// whose encoding it can spell without reflection (Plain strings,
// AppendFloat), for the encoders of the journal's records and the
// stream's events.
package wirejson

import (
	"bytes"
	"math"
	"strconv"
)

// Scanner reads one JSON text from a byte slice.
type Scanner struct {
	data   []byte
	pos    int
	failed bool
}

// New returns a Scanner at the start of data.
func New(data []byte) Scanner { return Scanner{data: data} }

// Failed reports whether the input left the canonical subset (or ended
// early) at any point so far.
func (s *Scanner) Failed() bool { return s.failed }

// Fail marks the scan failed; parsers call it on a grammar or
// validation failure of their own.
func (s *Scanner) Fail() { s.failed = true }

// skipSpace advances past JSON whitespace and returns the next byte, or
// 0 at the end of the input (0 is never valid JSON outside a string).
func (s *Scanner) skipSpace() byte {
	for ; s.pos < len(s.data); s.pos++ {
		if c := s.data[s.pos]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			return c
		}
	}
	return 0
}

// Open consumes the byte that opens an object ('{') or an array ('[').
func (s *Scanner) Open(c byte) {
	if s.failed || s.skipSpace() != c {
		s.failed = true
		return
	}
	s.pos++
}

// Next steps to element i (counting from 0) of the object or array
// being read, whose closing byte is end: it consumes the comma before
// every element but the first and reports true, or consumes end and
// reports false. A failed scan reports false, so loops stop.
func (s *Scanner) Next(end byte, i int) bool {
	if s.failed {
		return false
	}
	c := s.skipSpace()
	if c == end {
		s.pos++
		return false
	}
	if i > 0 {
		if c != ',' {
			s.failed = true
			return false
		}
		s.pos++
	}
	return true
}

// Field reads an object key and the colon after it, and returns the
// key's index in keys (at most 64 of them). seen holds one bit per
// index of keys, zero when the object opens. A key that matches none
// of keys byte for byte, or that the object already had, fails the
// scan and returns -1.
func (s *Scanner) Field(keys []string, seen *uint64) int {
	k := s.str()
	if s.failed || s.skipSpace() != ':' {
		s.failed = true
		return -1
	}
	s.pos++
	for i, key := range keys {
		if string(k) == key {
			if *seen&(1<<i) != 0 {
				break
			}
			*seen |= 1 << i
			return i
		}
	}
	s.failed = true
	return -1
}

// String reads a string value.
func (s *Scanner) String() string { return string(s.str()) }

// str reads a string of printable ASCII bytes (0x20–0x7f) other than
// the quote and the backslash, so its bytes are its value.
func (s *Scanner) str() []byte {
	if s.failed || s.skipSpace() != '"' {
		s.failed = true
		return nil
	}
	start := s.pos + 1
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i]
		case c < 0x20 || c >= 0x80 || c == '\\':
			s.failed = true
			return nil
		}
	}
	s.failed = true
	return nil
}

// Int64 reads an integer literal: an optional minus, then 0 or a digit
// string without a leading zero, with no fraction or exponent, whose
// value fits an int64.
func (s *Scanner) Int64() int64 {
	if s.failed {
		return 0
	}
	neg := s.skipSpace() == '-'
	if neg {
		s.pos++
	}
	// The magnitude may reach 2^63 for a negative value only.
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	data, start, i := s.data, s.pos, s.pos
	var v uint64
	// No 18-digit magnitude overflows; from the 19th digit on, check.
	for ; i < len(data) && i-start < 18; i++ {
		d := data[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + uint64(d)
	}
	for ; i < len(data); i++ {
		d := data[i] - '0'
		if d > 9 {
			break
		}
		if v > (limit-uint64(d))/10 {
			s.failed = true
			return 0
		}
		v = v*10 + uint64(d)
	}
	s.pos = i
	if digits := i - start; digits == 0 || (digits > 1 && data[start] == '0') {
		s.failed = true
		return 0
	}
	if i < len(data) {
		if c := data[i]; c == '.' || c == 'e' || c == 'E' {
			s.failed = true
			return 0
		}
	}
	if neg {
		return int64(-v)
	}
	return int64(v)
}

// Float64 reads a number literal in JSON's grammar (an optional minus,
// 0 or a digit string without a leading zero, an optional fraction, an
// optional exponent) whose value strconv.ParseFloat reads as a finite
// float64, which is what encoding/json decodes it to.
func (s *Scanner) Float64() float64 {
	if s.failed {
		return 0
	}
	s.skipSpace()
	data, start := s.data, s.pos
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	whole := i
	i = digits(data, i)
	ok := i > whole && (data[whole] != '0' || i == whole+1)
	if ok && i < len(data) && data[i] == '.' {
		frac := i + 1
		i = digits(data, frac)
		ok = i > frac
	}
	if ok && i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		exp := i
		i = digits(data, exp)
		ok = i > exp
	}
	if !ok {
		s.failed = true
		return 0
	}
	v, err := strconv.ParseFloat(string(data[start:i]), 64)
	if err != nil {
		s.failed = true
		return 0
	}
	s.pos = i
	return v
}

// digits returns the index of the first byte at or after i that is not
// a decimal digit.
func digits(data []byte, i int) int {
	for i < len(data) && data[i]-'0' <= 9 {
		i++
	}
	return i
}

// Int reads an integer literal whose value fits an int.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.failed = true
		return 0
	}
	return int(v)
}

// Literal consumes lit when the input continues with it byte for byte,
// with no whitespace skipped, and reports whether it did. It leaves the
// scan as it is otherwise: parsers of a fixed layout read optional
// members with it, and fail the scan themselves where a member must
// follow.
func (s *Scanner) Literal(lit string) bool {
	if s.failed || len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// Objects estimates the elements left in an array of flat objects, as
// a capacity hint: the '{' bytes from the scan position to the next
// ']', but no more than the comma-separated objects of at least size
// bytes each that those bytes can hold, so the hint never exceeds what
// a well-formed array of the same length would need. It does not move
// the scan, and is 0 on a failed scan.
func (s *Scanner) Objects(size int) int {
	if s.failed {
		return 0
	}
	rest := s.data[s.pos:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return min(bytes.Count(rest, []byte{'{'}), (len(rest)+1)/(size+1))
}

// End reports whether the scan succeeded and only whitespace remains.
func (s *Scanner) End() bool {
	return !s.failed && s.skipSpace() == 0 && s.pos == len(s.data)
}

// Plain reports whether s is printable ASCII (0x20–0x7f) other than the
// quote, the backslash and '<', '>' and '&'. Both of encoding/json's
// string encoders write such a string as its bytes between quotes:
// json.Marshal, which escapes the last three for HTML, and an Encoder
// with SetEscapeHTML(false), which does not. Other text, most non-ASCII
// text included, is left to encoding/json.
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form when |f| is below 1e-6
// or at least 1e21, with a one-digit negative exponent unpadded (1e-7,
// not 1e-07). It reports false, with b as it was, for NaN and ±Inf,
// which encoding/json refuses.
func AppendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}
