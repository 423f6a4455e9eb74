// Package wirejson scans the canonical subset of JSON that the serving
// path's clients send, in one forward pass over the bytes: JSON
// whitespace, objects whose keys are matched byte for byte against the
// keys the caller knows and appear at most once, arrays, strings of
// printable ASCII with no escapes, and integers that fit an int64. It
// is the whole lexical side of the one-pass request decoders
// (internal/job's instance parser, internal/server's request and batch
// parsers); they add the grammar, this package owns the byte rules.
//
// A Scanner never guesses. On the first byte outside the subset it
// fails, and stays failed: every later call returns a zero value, so a
// parser can read straight through and check Failed once. A caller
// that sees a failure hands the same bytes to encoding/json, which
// gives the full language its usual meaning (escapes, non-ASCII text,
// null, floats, case-insensitive keys) and its usual errors.
package wirejson

import "math"

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

// Int reads an integer literal whose value fits an int.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.failed = true
		return 0
	}
	return int(v)
}

// End reports whether the scan succeeded and only whitespace remains.
func (s *Scanner) End() bool {
	return !s.failed && s.skipSpace() == 0 && s.pos == len(s.data)
}
