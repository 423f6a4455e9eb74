package job

import (
	"encoding/json"
	"reflect"
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
