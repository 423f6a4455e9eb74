package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestServerSolveMalformedInputs posts hostile wire bodies at /v1/solve
// and requires a structured 400 (or 413/422 where noted) for every one —
// never a panic-driven 500. The rect end < start rows pin a real bug:
// the codec used to construct the rectangle before validating, and
// interval.New panics on end < start, crashing the handler. The rows
// after them are bodies the one-pass decoder declines: each must get
// the status and error encoding/json gives it, a 200 included.
func TestServerSolveMalformedInputs(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 4096})
	const inst = `{"g":2,"jobs":[{"id":0,"start":0,"end":5}]}`
	cases := []struct {
		name   string
		body   string
		status int
		substr string
	}{
		{
			"rect dim1 end before start",
			`{"rect":{"g":2,"jobs":[{"id":0,"start1":10,"end1":3,"start2":0,"end2":5}]}}`,
			http.StatusBadRequest, "end 3 < start 10",
		},
		{
			"rect dim2 end before start",
			`{"rect":{"g":2,"jobs":[{"id":0,"start1":0,"end1":5,"start2":9,"end2":-4}]}}`,
			http.StatusBadRequest, "end -4 < start 9",
		},
		{
			"rect coordinates overflow",
			`{"rect":{"g":2,"jobs":[{"id":0,"start1":-9223372036854775800,"end1":9223372036854775800,"start2":0,"end2":5}]}}`,
			http.StatusBadRequest, "sane range",
		},
		{
			"1-D negative length",
			`{"instance":{"g":2,"jobs":[{"id":0,"start":9,"end":3}]}}`,
			http.StatusBadRequest, "end 3 < start 9",
		},
		{
			"1-D coordinates overflow",
			`{"instance":{"g":2,"jobs":[{"id":0,"start":-4611686018427387904,"end":4611686018427387904}]}}`,
			http.StatusBadRequest, "sane range",
		},
		{
			"negative weight",
			`{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5,"weight":-3}]}}`,
			http.StatusBadRequest, "weight",
		},
		{
			"overflowing weight",
			`{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5,"weight":1e300}]}}`,
			http.StatusBadRequest, "",
		},
		{
			"NaN weight is not JSON",
			`{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5,"weight":NaN}]}}`,
			http.StatusBadRequest, "",
		},
		{
			"weight above the sane cap",
			`{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5,"weight":4611686018427387904}]}}`,
			http.StatusBadRequest, "sane cap",
		},
		{
			"demand above the sane cap",
			`{"instance":{"g":4611686018427387904,"jobs":[{"id":0,"start":0,"end":5,"demand":2305843009213693952}]}}`,
			http.StatusBadRequest, "sane cap",
		},
		{
			"both instance and rect",
			`{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5}]},"rect":{"g":2,"jobs":[{"id":0,"start1":0,"end1":5,"start2":0,"end2":5}]}}`,
			http.StatusBadRequest, "both",
		},
		// The budget sanity cap, symmetric with the coordinate cap: the
		// solve path used to forward any int64 budget while the stream
		// path rejected only negatives.
		{
			"negative budget",
			`{"kind":"max-throughput","instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5}]},"budget":-1}`,
			http.StatusBadRequest, "budget",
		},
		{
			"budget above the sane cap",
			`{"kind":"max-throughput","instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5}]},"budget":4611686018427387904}`,
			http.StatusBadRequest, "budget",
		},
		{
			"budget overflowing int64",
			`{"kind":"max-throughput","instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5}]},"budget":1e300}`,
			http.StatusBadRequest, "",
		},
		{
			"negative transition budget",
			`{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5}]},"transition_budget":-3}`,
			http.StatusBadRequest, "transition budget",
		},
		{"float coordinate", `{"instance":{"g":2,"jobs":[{"id":0,"start":1.5,"end":5}]}}`, http.StatusBadRequest, "cannot unmarshal number 1.5"},
		{"exponent coordinate", `{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":1e3}]}}`, http.StatusBadRequest, "cannot unmarshal number 1e3"},
		{"coordinate overflowing int64", `{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":9223372036854775808}]}}`, http.StatusBadRequest, "cannot unmarshal number 9223372036854775808"},
		{"null instance", `{"instance":null}`, http.StatusBadRequest, "no instance"},
		{"escaped key", `{"inst\u0061nce":` + inst + `}`, http.StatusOK, ""},
		{"case-variant key", `{"Instance":` + inst + `}`, http.StatusOK, ""},
		// encoding/json keeps the last value: budget 5, not -1.
		{"duplicate key", `{"kind":"max-throughput","instance":` + inst + `,"budget":-1,"budget":5}`, http.StatusOK, ""},
		{"unknown key with a nested value", `{"instance":` + inst + `,"note":{"tags":["a",{"b":null}],"w":1.5}}`, http.StatusOK, ""},
		{"non-ASCII base id", `{"instance":` + inst + `,"base_id":"r-é"}`, http.StatusOK, ""},
		{"trailing bytes", `{"instance":` + inst + `} {"instance":null} trailing`, http.StatusOK, ""},
		// The object ends before the body cap, so encoding/json, which
		// stops reading there, never meets the cap.
		{"padding past the body cap", `{"instance":` + inst + `}` + strings.Repeat(" ", 5000), http.StatusOK, ""},
		{"body over the cap", `{"instance":{"g":2,"jobs":[` + strings.Repeat(`{"id":0,"start":0,"end":5},`, 200) + `]}}`, http.StatusRequestEntityTooLarge, "too large"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out map[string]interface{}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("non-JSON error response: %v", err)
			}
			if resp.StatusCode != c.status {
				t.Fatalf("status %d (%v), want %d", resp.StatusCode, out, c.status)
			}
			if c.status == http.StatusOK {
				if out["error"] != nil || out["certified"] != true || out["n"] != 1.0 {
					t.Fatalf("want a certified 1-job result, got %v", out)
				}
				return
			}
			msg, _ := out["error"].(string)
			if msg == "" {
				t.Fatalf("no structured error in %v", out)
			}
			if c.substr != "" && !strings.Contains(msg, c.substr) {
				t.Errorf("error %q does not mention %q", msg, c.substr)
			}
		})
	}
}

// TestServerBatchMalformedRectItem checks a malformed rect request inside
// a batch fails alone with a structured per-item error (no panic, and no
// poisoning of its siblings). The rows after it are batches the one-pass
// decoder declines whole, for one item or for the envelope: each must
// get the status and per-item errors encoding/json gives it. A
// syntactically broken item breaks the envelope's decode, so the whole
// batch is a 400; an item that parses but does not decode or validate
// fails alone.
func TestServerBatchMalformedRectItem(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 4096})
	const ok0, ok2 = `{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5}]}}`, `{"instance":{"g":2,"jobs":[{"id":0,"start":2,"end":9}]}}`
	batch := func(items ...string) string { return `{"requests":[` + strings.Join(items, ",") + `]}` }
	cases := []struct {
		name   string
		body   string
		status int
		// items holds, per item, "" for a certified result or a
		// substring of its error; for a non-200 status, the one
		// substring of the response's error.
		items []string
	}{
		{"malformed rect item", `{"requests":[
		{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5}]}},
		{"rect":{"g":2,"jobs":[{"id":0,"start1":7,"end1":2,"start2":0,"end2":5}]}},
		{"instance":{"g":2,"jobs":[{"id":0,"start":2,"end":9}]}}
	]}`, http.StatusOK, []string{"", "end 2 < start 7", ""}},
		{"semantically invalid item", batch(ok0, `{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5},{"id":0,"start":1,"end":6}]}}`, ok2),
			http.StatusOK, []string{"", "duplicate job ID 0", ""}},
		{"syntactically broken item", batch(ok0, `{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5}]]}`, ok2),
			http.StatusBadRequest, []string{"decoding request"}},
		{"float in an item", batch(ok0, `{"instance":{"g":2,"jobs":[{"id":0,"start":2.5,"end":5}]}}`, ok2),
			http.StatusOK, []string{"", "cannot unmarshal number 2.5", ""}},
		{"overflow in an item", batch(ok0, `{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":5}]},"budget":-9223372036854775809}`),
			http.StatusOK, []string{"", "cannot unmarshal number -9223372036854775809"}},
		{"null instance item", batch(ok0, `{"instance":null}`), http.StatusOK, []string{"", "no instance"}},
		{"escaped, case-variant and duplicate keys", `{"Algorithm":"first-fit","requ\u0065sts":[` + ok0 + `],"requests":[` + ok0 + `,` + ok2 + `]}`,
			http.StatusOK, []string{"", ""}},
		{"unknown key with a nested value", `{"requests":[` + ok0 + `],"meta":{"x":[1,{"y":null}]}}`, http.StatusOK, []string{""}},
		{"non-ASCII base id", batch(ok0, `{"instance":{"g":2,"jobs":[{"id":0,"start":2,"end":9}]},"base_id":"r-ü"}`), http.StatusOK, []string{"", ""}},
		{"trailing bytes", batch(ok0) + ` trailing`, http.StatusOK, []string{""}},
		{"body over the cap", batch(strings.Repeat(ok0+",", 100) + ok0), http.StatusRequestEntityTooLarge, []string{"too large"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/solve/batch", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.status)
			}
			if c.status != http.StatusOK {
				var out map[string]string
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatalf("non-JSON error response: %v", err)
				}
				if !strings.Contains(out["error"], c.items[0]) {
					t.Fatalf("error %q does not mention %q", out["error"], c.items[0])
				}
				return
			}
			var out BatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if len(out.Results) != len(c.items) {
				t.Fatalf("%d results, want %d", len(out.Results), len(c.items))
			}
			for i, want := range c.items {
				got := out.Results[i]
				switch {
				case want == "" && (got.Error != "" || !got.Certified):
					t.Errorf("healthy item %d failed: %+v", i, got)
				case want != "" && !strings.Contains(got.Error, want):
					t.Errorf("item %d error = %q, want it to mention %q", i, got.Error, want)
				}
			}
		})
	}
}
