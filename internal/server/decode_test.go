package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/job"
	"repro/internal/wirejson"
	"repro/internal/workload"
)

// FuzzWireDecode feeds each input as a solve body, as a batch body and
// as the one item of a batch, and wherever the one-pass decoder accepts
// requires the encoding/json decode the handlers fall back to to yield
// the same value with no error, item errors included: at the end of the
// body, and when a read error (an over-cap body) follows its bytes. The
// committed corpus holds one input per reason the one-pass decoder
// declines.
func FuzzWireDecode(f *testing.F) {
	for _, s := range []string{
		`{"instance":{"g":2,"jobs":[{"id":0,"start":0,"end":10,"weight":1,"demand":1}]}}`,
		`{"kind":"max-throughput","instance":{"g":3,"jobs":[{"id":4,"start":-5,"end":5,"weight":2,"demand":3}]},"budget":40,"timeout_ms":500,"base_id":"r-1","transition_budget":2}`,
		`{"algorithm":"first-fit","requests":[{"instance":{"g":1,"jobs":[]}},{"kind":"online","instance":{"g":2,"jobs":[{"id":0,"start":1,"end":2}]}}]}`,
		` { "requests" : [ ] } ` + "\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := wirejson.New(data)
		if req := scanRequest(&sc); sc.End() {
			for _, readErr := range []error{nil, errCut} {
				ref, err := decodeSolveStd(cutShort(data, readErr))
				if err != nil {
					t.Fatalf("one-pass decoder accepted a solve body encoding/json rejects (%v): %q", err, data)
				}
				if !reflect.DeepEqual(req, ref) {
					t.Fatalf("solve body decoded to %+v, encoding/json %+v: %q", req, ref, data)
				}
			}
		}
		checkBatch(t, data)
		checkBatch(t, append(append([]byte(`{"requests":[`), data...), "]}"...))
	})
}

// checkBatch is FuzzWireDecode's check of one batch body.
func checkBatch(t *testing.T, body []byte) {
	t.Helper()
	sc := wirejson.New(body)
	b := scanBatch(&sc)
	if !sc.End() {
		return
	}
	for _, readErr := range []error{nil, errCut} {
		ref, err := decodeBatchStd(cutShort(body, readErr))
		if err != nil {
			t.Fatalf("one-pass decoder accepted a batch body encoding/json rejects (%v): %q", err, body)
		}
		if !reflect.DeepEqual(b, ref) {
			t.Fatalf("batch body decoded to %+v, encoding/json %+v: %q", b, ref, body)
		}
	}
}

// errCut stands for the error that ends an over-cap body's read.
var errCut = &http.MaxBytesError{Limit: 1}

// TestClientBodiesTakeOnePass checks that the bodies real clients send
// take the one-pass decoder, not the fallback, and decode as
// encoding/json decodes them: json.Marshal of a Request with every
// field it carries for a 1-D instance, of a BatchRequest with and
// without an algorithm, busysim loadgen's batches, and a batch spliced
// from each instance's own encoding the way busybench builds its
// resubmit bodies. Every other test passes whichever path runs, so
// without this one a decoder that declined everything would go unseen.
func TestClientBodiesTakeOnePass(t *testing.T) {
	inst := func(family string, seed int64) *job.Instance {
		in, err := workload.ByName(family, seed, workload.Config{N: 40, G: 3, MaxTime: 200, MaxLen: 30})
		if err != nil {
			t.Fatal(err)
		}
		return &in
	}
	marshal := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	full := Request{Kind: "max-throughput", Instance: inst("weighted", 1), Budget: 300,
		TimeoutMS: 250, BaseID: "r-0001", TransitionBudget: 3}
	solves := map[string][]byte{
		"request, every 1-D field": marshal(full),
		"request, instance only":   marshal(Request{Instance: inst("general", 2)}),
	}
	// busysim loadgen: one BatchRequest per batch, -algo optional.
	loadgen := func(algo, kind string) []byte {
		batch := BatchRequest{Algorithm: algo}
		for r := 0; r < 4; r++ {
			batch.Requests = append(batch.Requests, Request{Kind: kind, Instance: inst("proper", int64(r)), TimeoutMS: 100})
		}
		return marshal(batch)
	}
	// busybench's batchBody: each instance's own encoding spliced into
	// the envelope, base ids quoted by strconv.
	spliced := []byte(`{"requests":[`)
	for i, family := range []string{"general", "clique", "cloud"} {
		if i > 0 {
			spliced = append(spliced, ',')
		}
		spliced = append(spliced, `{"instance":`...)
		spliced = append(spliced, marshal(inst(family, int64(i)))...)
		if i != 1 {
			spliced = append(spliced, `,"base_id":`...)
			spliced = strconv.AppendQuote(spliced, "r-"+strconv.Itoa(i))
		}
		spliced = append(spliced, '}')
	}
	spliced = append(spliced, "]}"...)
	batches := map[string][]byte{
		"batch with algorithm":    marshal(BatchRequest{Algorithm: "first-fit", Requests: []Request{full, {Instance: inst("clique", 3)}}}),
		"batch without algorithm": marshal(BatchRequest{Requests: []Request{{Kind: "online", Instance: inst("arrivals", 4)}}}),
		"loadgen, auto":           loadgen("", "min-busy"),
		"loadgen, pinned":         loadgen("greedy-throughput", "max-throughput"),
		"busybench splice":        spliced,
	}

	for name, body := range solves {
		sc := wirejson.New(body)
		if scanRequest(&sc); !sc.End() {
			t.Errorf("%s: the one-pass decoder declined %s", name, body)
			continue
		}
		got, err := DecodeSolve(body, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := decodeSolveStd(bytes.NewReader(body))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, encoding/json %+v (%v)", name, got, want, err)
		}
	}
	for name, body := range batches {
		sc := wirejson.New(body)
		if scanBatch(&sc); !sc.End() {
			t.Errorf("%s: the one-pass decoder declined %s", name, body)
			continue
		}
		got, err := DecodeBatch(body, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := decodeBatchStd(bytes.NewReader(body))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, encoding/json %+v (%v)", name, got, want, err)
		}
	}
}
