package job

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/wirejson"
)

// FuzzInstanceJSON exercises the CLI interchange parser: any input either
// fails cleanly or round-trips to a validated instance, and wherever the
// one-pass parser accepts, encoding/json decodes the same Instance (a
// nil and an empty Jobs count as different). The committed corpus holds
// one input per reason the one-pass parser declines.
func FuzzInstanceJSON(f *testing.F) {
	seed := [][]byte{
		[]byte(`{"g":2,"jobs":[{"id":0,"start":0,"end":10}]}`),
		[]byte(`{"g":1,"jobs":[]}`),
		[]byte(`{"g":3,"jobs":[{"id":1,"start":-5,"end":5,"weight":2,"demand":3}]}`),
		[]byte(`{"g":0}`),
		[]byte(`{"jobs":[{"id":0,"start":9,"end":2}]}`),
		[]byte(`not json at all`),
		[]byte(`{"g":2,"jobs":[{"id":0,"start":0,"end":10},{"id":0,"start":1,"end":2}]}`),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := wirejson.New(data)
		if fast := ScanInstance(&sc); sc.End() {
			var ref Instance
			if err := ref.unmarshalStd(data); err != nil {
				t.Fatalf("one-pass parser accepted what encoding/json rejects (%v): %q", err, data)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("one-pass parser decoded %#v, encoding/json %#v: %q", fast, ref, data)
			}
		}
		var in Instance
		if err := json.Unmarshal(data, &in); err != nil {
			return // rejected cleanly
		}
		// Accepted input must be a valid instance and survive a marshal
		// round trip.
		if err := in.Validate(); err != nil {
			t.Fatalf("accepted invalid instance %+v: %v", in, err)
		}
		out, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		var back Instance
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back.Jobs) != len(in.Jobs) || back.G != in.G {
			t.Fatalf("round trip changed shape: %+v vs %+v", back, in)
		}
	})
}

// TestScanJobsHintBounded decodes an instance whose jobs array is 1 MiB
// of '{' bytes, which both parsers decline at the second one. The slice
// scanJobs sizes before that may hold no more jobs than the same bytes
// would as the shortest valid jobs ({"end":1} and a comma, ten bytes,
// for a 40-byte Job), so the decode allocates about four times the
// body; one job per '{' would be forty times.
func TestScanJobsHintBounded(t *testing.T) {
	body := []byte(`{"g":1,"jobs":[` + strings.Repeat("{", 1<<20))
	var in Instance
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := in.UnmarshalJSON(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a jobs array of '{' bytes")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 5*uint64(len(body)) {
		t.Errorf("decoding a %d-byte body of '{' bytes allocated %d B, over five times its size", len(body), got)
	}
}
