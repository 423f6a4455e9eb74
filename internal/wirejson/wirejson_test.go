package wirejson

import (
	"strconv"
	"testing"
)

// TestInt64 pins the integer rule at its edges: every literal accepted
// reads as strconv.ParseInt reads it, and every literal outside the
// subset (overflow, a leading zero, a fraction, an exponent, a sign
// JSON does not allow) fails the scan.
func TestInt64(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{"0", true}, {"-0", true}, {"7", true}, {"-42", true},
		{"999999999999999999", true}, {"-999999999999999999", true},
		{"9223372036854775807", true}, {"-9223372036854775808", true},
		{"9223372036854775808", false}, {"-9223372036854775809", false},
		{"18446744073709551616", false}, {"00", false}, {"01", false},
		{"-", false}, {"", false}, {"+1", false}, {"1.0", false},
		{"1e3", false}, {"1E3", false}, {"-.5", false},
	} {
		sc := New([]byte(" " + c.in + " "))
		got := sc.Int64()
		if ok := sc.End(); ok != c.ok {
			t.Errorf("%q: accepted %v, want %v", c.in, ok, c.ok)
			continue
		}
		if want, err := strconv.ParseInt(c.in, 10, 64); c.ok && (err != nil || got != want) {
			t.Errorf("%q read as %d, strconv %d (%v)", c.in, got, want, err)
		}
	}
}

// TestStringsAndStructure checks the string rule (printable ASCII, no
// quote or backslash inside), the key rule (a known key, byte for byte,
// at most once) and that a failure sticks.
func TestStringsAndStructure(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{`{"a":"x y~"}`, true},
		{"{\"a\":\"x\x7fy\"}", true},
		{` { "a" : "" , "b" : "c" } `, true},
		{`{}`, true},
		{`{"a":"\u0041"}`, false},
		{`{"a":"\""}`, false},
		{"{\"a\":\"é\"}", false},
		{"{\"a\":\"x\ty\"}", false},
		{`{"a":"x"`, false},
		{`{"a":"x",}`, false},
		{`{"a" "x"}`, false},
		{`{"a":"x"} {}`, false},
		{`{"a":"x","a":"y"}`, false},
		{`{"A":"x"}`, false},
		{`{"c":"x"}`, false},
	} {
		sc := New([]byte(c.in))
		var seen uint64
		sc.Open('{')
		for i := 0; sc.Next('}', i); i++ {
			sc.Field([]string{"a", "b"}, &seen)
			_ = sc.String()
		}
		if ok := sc.End(); ok != c.ok {
			t.Errorf("%q: accepted %v, want %v", c.in, ok, c.ok)
		}
		if !c.ok && sc.Int64() != 0 {
			t.Errorf("%q: a failed scan read on", c.in)
		}
	}
}
