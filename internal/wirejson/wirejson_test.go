package wirejson

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
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

// TestFloat64 pins the number rule: every literal in JSON's grammar
// reads as strconv.ParseFloat reads it, and a literal outside the
// grammar, or out of float64's range, fails the scan.
func TestFloat64(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{"0", true}, {"-0", true}, {"1.5", true}, {"1.50", true}, {"-2e-7", true},
		{"1E+21", true}, {"0.1e1", true}, {"5e-324", true}, {"1e-400", true},
		{"1.7976931348623157e308", true}, {"1e309", false}, {"-1e309", false},
		{"01", false}, {"1.", false}, {".5", false}, {"+1", false}, {"1e", false},
		{"1e+", false}, {"-", false}, {"", false}, {"NaN", false}, {"Inf", false},
		{"0x1p0", false}, {"1_0", false},
	} {
		sc := New([]byte(" " + c.in + " "))
		got := sc.Float64()
		if ok := sc.End(); ok != c.ok {
			t.Errorf("%q: accepted %v, want %v", c.in, ok, c.ok)
			continue
		}
		if want, err := strconv.ParseFloat(c.in, 64); c.ok && (err != nil || got != want) {
			t.Errorf("%q read as %v, strconv %v (%v)", c.in, got, want, err)
		}
	}
}

// TestAppendFloatAndPlain checks the writers against json.Marshal: a
// float at the edges of its two formats, and that a Plain string is one
// Marshal and an Encoder that does not escape HTML both write as it is.
func TestAppendFloatAndPlain(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.999999999999999e-7, 1e-7, -1.5e-10,
		1e20, 1e21, 123456789e15, 5e-324, math.MaxFloat64, 0.1, 1.0 / 3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		want, err := json.Marshal(f)
		got, ok := AppendFloat([]byte("x"), f)
		if ok != (err == nil) || ok && string(got) != "x"+string(want) || !ok && string(got) != "x" {
			t.Errorf("AppendFloat(%v) = %s, %v; json.Marshal %s (%v)", f, got, ok, want, err)
		}
	}
	for _, c := range []struct {
		s     string
		plain bool
	}{
		{"", true}, {"online-budget", true}, {"a b~\x7f", true}, {"<", false}, {">", false}, {"&", false},
		{`"`, false}, {`\`, false}, {"\n", false}, {"\x1f", false}, {"é", false}, {" ", false}, {"\xff", false},
	} {
		s := c.s
		marshal, _ := json.Marshal(s)
		var enc bytes.Buffer
		e := json.NewEncoder(&enc)
		e.SetEscapeHTML(false)
		if err := e.Encode(s); err != nil {
			t.Fatal(err)
		}
		raw := `"` + s + `"`
		if Plain(s) != c.plain || c.plain && (string(marshal) != raw || enc.String() != raw+"\n") {
			t.Errorf("Plain(%q) = %v, want %v; json.Marshal writes %s, the Encoder %s", s, Plain(s), c.plain, marshal, enc.Bytes())
		}
	}
}

// TestLiteralAndObjects checks that Literal consumes only an exact
// match and leaves a scan it does not match as it was, and that Objects
// counts up to the array's end without moving the scan, at most one
// object per size+1 bytes, and nothing on a failed scan.
func TestLiteralAndObjects(t *testing.T) {
	sc := New([]byte(`[{"a":1},{"a":2}] {"b":3}`))
	sc.Open('[')
	if n := sc.Objects(7); n != 2 {
		t.Errorf("Objects(7) = %d, want 2", n)
	}
	if n := sc.Objects(8); n != 1 {
		t.Errorf("Objects(8) = %d, want 1: 16 bytes hold one 8-byte object and its comma", n)
	}
	if sc.Literal(`{"a": 1}`) || !sc.Literal(`{"a":`) || sc.Failed() {
		t.Fatal("Literal matched loosely, or missed an exact match")
	}
	if v := sc.Int(); v != 1 || !sc.Literal("}") {
		t.Errorf("after the literal the scan read %d", v)
	}
	flood := New([]byte("[" + strings.Repeat("{", 1000)))
	flood.Open('[')
	if n := flood.Objects(9); n != 100 {
		t.Errorf("Objects(9) over 1000 '{' = %d, want 100", n)
	}
	if flood.Int(); flood.Objects(9) != 0 {
		t.Error("Objects counted on a failed scan")
	}
}
