package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTraceparentRoundTripSolve is the tracing acceptance e2e: a client
// that sends a W3C traceparent gets the span tree echoed in the body —
// covering classify, placement and certification — joined to its trace
// id, and the same tree lands in the /debug/traces ring.
func TestTraceparentRoundTripSolve(t *testing.T) {
	ts := newTestServer(t, Config{})
	tid, sid := trace.NewTraceID(), trace.NewSpanID()

	body, _ := json.Marshal(Request{Instance: properInstance(1, 12)})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.TraceparentHeader, trace.Traceparent(tid, sid))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, data)
	}

	tp := resp.Header.Get("Traceparent")
	gotTID, _, err := trace.ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", tp, err)
	}
	if gotTID != tid {
		t.Errorf("response joined trace %s, want the client's %s", gotTID, tid)
	}

	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("traceparent request returned no trace in the body")
	}
	if res.Trace.Name != "request" {
		t.Errorf("root span %q, want request", res.Trace.Name)
	}
	if res.Trace.TraceID != tid {
		t.Errorf("trace id %s, want the client's %s", res.Trace.TraceID, tid)
	}
	if res.Trace.ParentSpanID != sid {
		t.Errorf("root's remote parent %s, want the client's span %s", res.Trace.ParentSpanID, sid)
	}
	for _, phase := range []string{"solve", "classify", "placement", "bound", "certify"} {
		if res.Trace.Find(phase) == nil {
			t.Errorf("span tree is missing %q:\n%s", phase, data)
		}
	}
	if got := res.Trace.Find("solve").Attr("algorithm"); got != res.Algorithm {
		t.Errorf("solve span algorithm %q, want %q", got, res.Algorithm)
	}

	entries := debugTraces(t, ts.URL, "")
	if len(entries) != 1 {
		t.Fatalf("/debug/traces has %d entries, want 1", len(entries))
	}
	if entries[0].TraceID != tid || entries[0].Endpoint != "solve" {
		t.Errorf("ring entry = %s/%s, want %s/solve", entries[0].TraceID, entries[0].Endpoint, tid)
	}
}

// TestSolveWithoutTraceparentStillTraced: serving is always-on sampling.
// No header means no trace in the body — but the ring and the phase
// histograms still record the request.
func TestSolveWithoutTraceparentStillTraced(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/solve", Request{Instance: properInstance(1, 10)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, data)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("no traceparent sent, but the body carries a trace")
	}
	if entries := debugTraces(t, ts.URL, ""); len(entries) != 1 {
		t.Errorf("/debug/traces has %d entries, want 1", len(entries))
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(text), `busyd_solve_phase_seconds_count{algorithm=`) {
		t.Error("metrics are missing the busyd_solve_phase_seconds family")
	}
}

// TestInvalidTraceparentIgnored: a malformed header must not fail the
// request or opt the client into an echo — it is treated as absent.
func TestInvalidTraceparentIgnored(t *testing.T) {
	ts := newTestServer(t, Config{})
	body, _ := json.Marshal(Request{Instance: properInstance(1, 8)})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.TraceparentHeader, "00-not-a-traceparent-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, data)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("malformed traceparent still echoed a trace")
	}
}

// TestTraceparentRoundTripBatch checks the batch path: per-result solve
// subtrees in the body, the batch root in the ring.
func TestTraceparentRoundTripBatch(t *testing.T) {
	ts := newTestServer(t, Config{})
	tid, sid := trace.NewTraceID(), trace.NewSpanID()
	body, _ := json.Marshal(BatchRequest{Requests: []Request{
		{Instance: properInstance(1, 8)}, {Instance: properInstance(2, 8)},
	}})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.TraceparentHeader, trace.Traceparent(tid, sid))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, data)
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		if res.Trace == nil {
			t.Fatalf("batch result %d carries no trace", i)
		}
		if res.Trace.Name != "solve" {
			t.Errorf("batch result %d root span %q, want solve", i, res.Trace.Name)
		}
		if res.Trace.Find("placement") == nil {
			t.Errorf("batch result %d trace has no placement span", i)
		}
	}
	entries := debugTraces(t, ts.URL, "")
	if len(entries) != 1 || entries[0].Endpoint != "batch" || entries[0].Algorithm != "auto" {
		t.Fatalf("ring after batch = %+v, want one batch/auto entry", entries)
	}
}

// TestTraceparentRoundTripStream opens a traced NDJSON session and
// requires the close event to carry the session's root span with one
// synthesized aggregate node per serving stage.
func TestTraceparentRoundTripStream(t *testing.T) {
	ts := newTestServer(t, Config{})
	in := workload.Arrivals(3, workload.Config{N: 40, G: 3, MaxTime: 500, MaxLen: 50})
	tid, sid := trace.NewTraceID(), trace.NewSpanID()

	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	if err := enc.Encode(StreamOpen{G: in.G, Strategy: "online-bestfit"}); err != nil {
		t.Fatal(err)
	}
	for _, j := range in.Jobs {
		if err := enc.Encode(StreamArrival{ID: j.ID, Start: j.Start(), End: j.End(), Weight: j.Weight}); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(trace.TraceparentHeader, trace.Traceparent(tid, sid))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: %d %s", resp.StatusCode, out)
	}
	if gotTID, _, err := trace.ParseTraceparent(resp.Header.Get("Traceparent")); err != nil || gotTID != tid {
		t.Errorf("stream response traceparent %q (err %v), want trace %s", resp.Header.Get("Traceparent"), err, tid)
	}

	var closeEv *StreamEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		if ev.Type == StreamEventClose {
			e := ev
			closeEv = &e
		} else if ev.Trace != nil {
			t.Errorf("%s event carries a trace; only close may", ev.Type)
		}
	}
	if closeEv == nil {
		t.Fatal("stream ended without a close event")
	}
	if closeEv.Trace == nil {
		t.Fatal("traced stream close carries no trace")
	}
	if closeEv.Trace.TraceID != tid {
		t.Errorf("stream trace id %s, want the client's %s", closeEv.Trace.TraceID, tid)
	}
	for _, stage := range []string{"stage.queue", "stage.flush", "stage.solve"} {
		n := closeEv.Trace.Find(stage)
		if n == nil {
			t.Fatalf("close trace missing %s:\n%+v", stage, closeEv.Trace)
		}
		if n.Attr("aggregate") != "true" {
			t.Errorf("%s is not marked aggregate", stage)
		}
		if n.Attr("arrivals") != fmt.Sprint(len(in.Jobs)) {
			t.Errorf("%s observed %s arrivals, want %d", stage, n.Attr("arrivals"), len(in.Jobs))
		}
	}
	all := debugTraces(t, ts.URL, "")
	if len(all) != 1 || all[0].Endpoint != "stream" {
		t.Fatalf("ring after stream = %+v, want one stream entry", all)
	}
}

// TestDebugTracesFilters drives several solves and checks the query
// surface: limit, min_ms, algorithm, and the 400/405 rejections.
func TestDebugTracesFilters(t *testing.T) {
	ts := newTestServer(t, Config{})
	for seed := int64(1); seed <= 3; seed++ {
		resp, data := postJSON(t, ts.URL+"/v1/solve", Request{Instance: properInstance(seed, 10)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: %d %s", seed, resp.StatusCode, data)
		}
	}

	all := debugTraces(t, ts.URL, "")
	if len(all) != 3 {
		t.Fatalf("ring has %d entries, want 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Seq <= all[i].Seq {
			t.Fatalf("ring not newest-first: seq %d before %d", all[i-1].Seq, all[i].Seq)
		}
	}
	if got := debugTraces(t, ts.URL, "?limit=2"); len(got) != 2 {
		t.Errorf("limit=2 returned %d entries", len(got))
	}
	if got := debugTraces(t, ts.URL, "?min_ms=1e9"); len(got) != 0 {
		t.Errorf("min_ms=1e9 returned %d entries, want 0", len(got))
	}
	if got := debugTraces(t, ts.URL, "?algorithm=no-such-algorithm"); len(got) != 0 {
		t.Errorf("algorithm filter matched %d entries, want 0", len(got))
	}
	// Auto dispatch may pick different algorithms per instance; the
	// filter must return exactly the entries carrying the chosen label.
	want := 0
	for _, e := range all {
		if e.Algorithm == all[0].Algorithm {
			want++
		}
	}
	if got := debugTraces(t, ts.URL, "?algorithm="+all[0].Algorithm); len(got) != want {
		t.Errorf("algorithm=%s matched %d entries, want %d", all[0].Algorithm, len(got), want)
	}

	for _, q := range []string{"?min_ms=-1", "?min_ms=abc", "?limit=-2", "?limit=x"} {
		resp, err := http.Get(ts.URL + "/debug/traces" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /debug/traces%s = %d, want 400", q, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/debug/traces", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/traces = %d, want 405", resp.StatusCode)
	}
}

// TestTraceRingEviction fills a small ring past capacity and checks
// eviction drops oldest-first while the snapshot stays newest-first.
func TestTraceRingEviction(t *testing.T) {
	r := newTraceRing(4)
	for i := 0; i < 10; i++ {
		r.add(&TraceEntry{Endpoint: "solve"})
	}
	got := r.snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot has %d entries, want 4", len(got))
	}
	for i, want := range []uint64{10, 9, 8, 7} {
		if got[i].Seq != want {
			t.Errorf("snapshot[%d].Seq = %d, want %d", i, got[i].Seq, want)
		}
	}
}

// TestTraceRingConcurrent hammers the ring from writers while readers
// snapshot — the lock-free reader contract under the race detector.
func TestTraceRingConcurrent(t *testing.T) {
	r := newTraceRing(8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.add(&TraceEntry{Endpoint: "solve", Trace: &trace.Node{Name: "request"}})
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		snap := r.snapshot()
		if len(snap) > 8 {
			t.Fatalf("snapshot has %d entries, cap is 8", len(snap))
		}
		for j := range snap {
			if snap[j] == nil || snap[j].Trace == nil {
				t.Fatal("snapshot returned an incomplete entry")
			}
			if j > 0 && snap[j-1].Seq <= snap[j].Seq {
				t.Fatal("snapshot not sorted newest-first")
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSlowSolveLog sets the threshold to one nanosecond so every solve
// is slow, and requires the structured slow_solve line with its phase
// breakdown in the request log.
func TestSlowSolveLog(t *testing.T) {
	var buf syncBuffer
	ts := newTestServer(t, Config{SlowSolve: time.Nanosecond, RequestLog: &buf})
	resp, data := postJSON(t, ts.URL+"/v1/solve", Request{Instance: properInstance(1, 10)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, data)
	}

	found := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var entry struct {
			Kind      string           `json:"kind"`
			Algorithm string           `json:"algorithm"`
			PhaseNS   map[string]int64 `json:"phase_ns"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("malformed log line %q: %v", line, err)
		}
		if entry.Kind != "slow_solve" {
			continue
		}
		found = true
		if entry.Algorithm == "" {
			t.Error("slow_solve line has no algorithm")
		}
		if len(entry.PhaseNS) == 0 {
			t.Error("slow_solve line has no phase breakdown")
		}
		for _, structural := range []string{"request", "solve", "batch"} {
			if _, ok := entry.PhaseNS[structural]; ok {
				t.Errorf("structural span %q leaked into the phase breakdown", structural)
			}
		}
	}
	if !found {
		t.Fatalf("no slow_solve line in the request log:\n%s", buf.String())
	}
}

// syncBuffer is a race-safe bytes.Buffer for capturing the request log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// debugTraces fetches and decodes GET /debug/traces with the given
// query string ("" or "?k=v&...").
func debugTraces(t *testing.T, baseURL, query string) []*TraceEntry {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/traces" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces%s: %d %s", query, resp.StatusCode, data)
	}
	var out TracesResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding /debug/traces: %v\n%s", err, data)
	}
	return out.Traces
}
