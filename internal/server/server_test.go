package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	busytime "repro"
	"repro/internal/job"
	"repro/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func properInstance(seed int64, n int) *job.Instance {
	in := workload.Proper(seed, workload.Config{N: n, G: 3, MaxTime: 400, MaxLen: 60})
	return &in
}

// TestServerEndToEndMixedBatch is the acceptance e2e: a mixed-kind batch
// over real HTTP, every returned certificate verified — both the
// server-side verdict and a client-side re-derivation from the returned
// machine assignment.
func TestServerEndToEndMixedBatch(t *testing.T) {
	ts := newTestServer(t, Config{})

	minbusy := properInstance(1, 14)
	clique := workload.Clique(2, workload.Config{N: 10, G: 2, MaxTime: 400, MaxLen: 60})
	online := properInstance(3, 12)
	rect := RectInstance{G: 2, Jobs: []RectJob{
		{ID: 0, Start1: 0, End1: 4, Start2: 0, End2: 2},
		{ID: 1, Start1: 2, End1: 6, Start2: 1, End2: 3},
		{ID: 2, Start1: 5, End1: 9, Start2: 0, End2: 2},
	}}
	batch := BatchRequest{Requests: []Request{
		{Instance: minbusy},
		{Kind: "max-throughput", Instance: &clique, Budget: clique.TotalLen()},
		{Kind: "online", Instance: online},
		{Rect: &rect},
	}}

	resp, body := postJSON(t, ts.URL+"/v1/solve/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if len(out.Results) != len(batch.Requests) {
		t.Fatalf("got %d results for %d requests", len(out.Results), len(batch.Requests))
	}
	wantKinds := []string{"min-busy", "max-throughput", "online", "min-busy-2d"}
	instances := []*job.Instance{minbusy, &clique, online, nil}
	for i, res := range out.Results {
		if res.Error != "" {
			t.Fatalf("request %d failed: %s", i, res.Error)
		}
		if res.Kind != wantKinds[i] {
			t.Fatalf("request %d: kind %q, want %q", i, res.Kind, wantKinds[i])
		}
		if !res.Certified || res.CertificateError != "" {
			t.Fatalf("request %d not certified: %s", i, res.CertificateError)
		}
		if res.Cost < res.LowerBound {
			t.Fatalf("request %d: cost %d below lower bound %d", i, res.Cost, res.LowerBound)
		}
		// Client-side re-verification from the wire assignment.
		if in := instances[i]; in != nil {
			sch := busytime.Schedule{Instance: *in, Machine: res.Machine}
			local := busytime.ResultOf(res.Algorithm, sch)
			if cerr := local.Certificate(); cerr != nil {
				t.Fatalf("request %d: client-side certificate: %v", i, cerr)
			}
			if local.Cost != res.Cost {
				t.Fatalf("request %d: wire cost %d != recomputed %d", i, res.Cost, local.Cost)
			}
		}
	}
}

func TestServerSolveSingle(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/solve", Request{Instance: properInstance(5, 12)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Certified || res.Algorithm == "" || res.N != 12 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestServerSolveErrors(t *testing.T) {
	ts := newTestServer(t, Config{})

	// Unknown kind → 400.
	resp, _ := postJSON(t, ts.URL+"/v1/solve", map[string]interface{}{"kind": "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d, want 400", resp.StatusCode)
	}

	// Malformed JSON → 400.
	r2, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", r2.StatusCode)
	}

	// Invalid instance (g = 0 fails wire validation) → 400.
	resp, _ = postJSON(t, ts.URL+"/v1/solve", map[string]interface{}{
		"instance": map[string]interface{}{"g": 0, "jobs": []interface{}{}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid instance: status %d, want 400", resp.StatusCode)
	}

	// Negative budget is now stopped at the wire codec → 400 (the
	// symmetric sanity cap; see TestWireBudgetCaps).
	resp, _ = postJSON(t, ts.URL+"/v1/solve", Request{
		Kind: "max-throughput", Instance: properInstance(6, 8), Budget: -5,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative budget: status %d, want 400", resp.StatusCode)
	}

	// Solver-level rejection (a BaseID warm start only exists for
	// min-busy) → 422 with the error inline.
	resp, body := postJSON(t, ts.URL+"/v1/solve", Request{
		Kind: "max-throughput", Instance: properInstance(6, 8), BaseID: "r-1-x",
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("solver rejection: status %d, want 422 (%s)", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Error == "" {
		t.Fatal("solver rejection carried no error")
	}
}

func TestServerInstanceTooLarge(t *testing.T) {
	ts := newTestServer(t, Config{MaxJobs: 4})

	resp, _ := postJSON(t, ts.URL+"/v1/solve", Request{Instance: properInstance(1, 10)})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized single: status %d, want 413", resp.StatusCode)
	}

	// In a batch the oversized item fails alone.
	batch := BatchRequest{Requests: []Request{
		{Instance: properInstance(2, 3)},
		{Instance: properInstance(3, 10)},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/solve/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Error != "" || !out.Results[0].Certified {
		t.Fatalf("healthy item poisoned: %+v", out.Results[0])
	}
	if out.Results[1].Error == "" {
		t.Fatal("oversized batch item reported no error")
	}
}

// TestServerBatchMalformedItem posts a batch whose middle item fails
// instance validation at decode time (g = 0): it must fail alone — the
// wire codec validates eagerly, so the server decodes batch items
// individually rather than letting one abort the whole batch decode.
func TestServerBatchMalformedItem(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := `{"requests": [
		{"instance": {"g": 2, "jobs": [{"id": 0, "start": 0, "end": 10}]}},
		{"instance": {"g": 0, "jobs": []}},
		{"instance": {"g": 2, "jobs": [{"id": 0, "start": 3, "end": 8}]}}]}`
	resp, err := http.Post(ts.URL+"/v1/solve/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	for _, i := range []int{0, 2} {
		if out.Results[i].Error != "" || !out.Results[i].Certified {
			t.Fatalf("healthy item %d poisoned: %+v", i, out.Results[i])
		}
	}
	if !strings.Contains(out.Results[1].Error, "positive g") {
		t.Fatalf("malformed item error %q, want instance validation failure", out.Results[1].Error)
	}
}

func TestServerBatchTooLong(t *testing.T) {
	ts := newTestServer(t, Config{MaxBatch: 2})
	batch := BatchRequest{Requests: []Request{
		{Instance: properInstance(1, 4)},
		{Instance: properInstance(2, 4)},
		{Instance: properInstance(3, 4)},
	}}
	resp, _ := postJSON(t, ts.URL+"/v1/solve/batch", batch)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestServerOverloadAdmission holds one slow exact solve in flight and
// checks the next request is refused with 429.
func TestServerOverloadAdmission(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 1})

	slow := workload.General(3, workload.Config{N: 18, G: 3, MaxTime: 500, MaxLen: 80})
	slowBody, err := json.Marshal(BatchRequest{
		Algorithm: "exact",
		Requests:  []Request{{Instance: &slow, TimeoutMS: 30_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	slowCtx, cancelSlow := context.WithCancel(context.Background())
	defer cancelSlow()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		req, _ := http.NewRequestWithContext(slowCtx, http.MethodPost,
			ts.URL+"/v1/solve/batch", bytes.NewReader(slowBody))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()

	// Wait for the slow solve to be admitted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("slow request never showed up in busyd_in_flight")
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(text), "busyd_in_flight 1") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/solve", Request{Instance: properInstance(1, 4)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}

	cancelSlow()
	<-slowDone

	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(text), `busyd_rejected_total{reason="overload"} 1`) {
		t.Fatalf("overload rejection not counted:\n%s", text)
	}
}

func TestServerAlgorithmsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var algs []AlgorithmInfo
	if err := json.NewDecoder(resp.Body).Decode(&algs); err != nil {
		t.Fatal(err)
	}
	if len(algs) != len(busytime.Algorithms()) {
		t.Fatalf("served %d algorithms, registry has %d", len(algs), len(busytime.Algorithms()))
	}
	found := false
	for _, a := range algs {
		if a.Name == "first-fit" && a.Kind == "min-busy" {
			found = true
		}
	}
	if !found {
		t.Fatal("first-fit missing from /v1/algorithms")
	}
}

func TestServerHealthAndMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(ok)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, ok)
	}

	postJSON(t, ts.URL+"/v1/solve", Request{Instance: properInstance(1, 6)})
	postJSON(t, ts.URL+"/v1/solve/batch", BatchRequest{Requests: []Request{
		{Instance: properInstance(2, 6)}, {Instance: properInstance(3, 6)},
	}})

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`busyd_requests_total{endpoint="solve"} 1`,
		`busyd_requests_total{endpoint="batch"} 1`,
		"busyd_batch_instances_total 2",
		"busyd_in_flight 0",
		`busyd_solve_latency_seconds_count{algorithm=`,
		`busyd_batch_latency_seconds_count{algorithm="auto"} 1`,
		"busyd_batch_size_count 1",
		`busyd_solve_phase_seconds_count{algorithm=`,
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServerReoptCacheCounters drives the three reoptimization outcomes
// over real HTTP — cold miss, exact-form hit, near-hit repair — and
// asserts the X-Busytime-Cache header, the wire result fields, and the
// /metrics counters advancing in step.
func TestServerReoptCacheCounters(t *testing.T) {
	ts := newTestServer(t, Config{})

	in := job.Instance{G: 2}
	for i := 0; i < 16; i++ {
		in.Jobs = append(in.Jobs, job.New(i, int64(i*5), int64(i*5+10)))
	}

	solve := func(req Request, wantCache string) Result {
		t.Helper()
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Busytime-Cache"); got != wantCache {
			t.Fatalf("X-Busytime-Cache = %q, want %q", got, wantCache)
		}
		var res Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if res.Cache != wantCache {
			t.Fatalf("result cache = %q, want %q", res.Cache, wantCache)
		}
		if !res.Certified {
			t.Fatalf("%s result not certified: %s", wantCache, res.CertificateError)
		}
		return res
	}

	cold := solve(Request{Instance: &in}, "miss")
	if cold.ID == "" {
		t.Fatal("miss carried no result ID")
	}
	hit := solve(Request{Instance: &in}, "hit")
	if hit.ID != cold.ID || hit.Cost != cold.Cost {
		t.Fatalf("hit (id %q cost %d) does not match cold (id %q cost %d)",
			hit.ID, hit.Cost, cold.ID, cold.Cost)
	}
	// One added job, origin untouched: a near-hit served via repair.
	mod := in.Clone()
	mod.Jobs = append(mod.Jobs, job.New(900, 3, 12))
	rep := solve(Request{Instance: &mod}, "repair")
	if rep.BaseID != cold.ID {
		t.Errorf("repair base_id = %q, want %q", rep.BaseID, cold.ID)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`busyd_reopt_total{outcome="hit"} 1`,
		`busyd_reopt_total{outcome="repair"} 1`,
		`busyd_reopt_total{outcome="miss"} 1`,
		"busyd_reopt_transition_jobs_count 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServerReoptDisabled: a negative ReoptCache turns the cache off —
// no header, no wire cache fields.
func TestServerReoptDisabled(t *testing.T) {
	ts := newTestServer(t, Config{ReoptCache: -1})
	resp, body := postJSON(t, ts.URL+"/v1/solve", Request{Instance: properInstance(9, 8)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Busytime-Cache"); got != "" {
		t.Fatalf("X-Busytime-Cache = %q with cache disabled", got)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != "" || res.Cache != "" {
		t.Fatalf("cache fields set with cache disabled: id=%q cache=%q", res.ID, res.Cache)
	}
}

// TestServerGracefulDrain cancels the run context mid-flight: Serve must
// stop accepting, let the in-flight request finish, and return nil.
func TestServerGracefulDrain(t *testing.T) {
	s, err := New(Config{DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Server is up.
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after ctx cancellation")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting after drain")
	}
}

// TestServerBatchAlgorithmOverride pins the batch algorithm and checks
// both the override and the unknown-name failure mode.
func TestServerBatchAlgorithmOverride(t *testing.T) {
	ts := newTestServer(t, Config{})
	batch := BatchRequest{Algorithm: "first-fit", Requests: []Request{
		{Instance: properInstance(1, 10)},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/solve/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Algorithm != "first-fit" {
		t.Fatalf("algorithm %q, want pinned first-fit", out.Results[0].Algorithm)
	}

	batch.Algorithm = "no-such-algorithm"
	resp, _ = postJSON(t, ts.URL+"/v1/solve/batch", batch)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: status %d, want 400", resp.StatusCode)
	}
}

// TestServerFirstFitAliases pins first-fit-fast as an alias of
// first-fit: both old spellings resolve to first-fit, and a batch that
// pins the old name reports first-fit, in its results and in the
// algorithm label of the latency histograms.
func TestServerFirstFitAliases(t *testing.T) {
	for _, name := range []string{"first-fit-fast", "firstfitfast"} {
		info, err := busytime.LookupAlgorithmKind(busytime.KindMinBusy, name)
		if err != nil || info.Name != "first-fit" {
			t.Errorf("%s resolves to %q (%v), want first-fit", name, info.Name, err)
		}
	}
	ts := newTestServer(t, Config{})
	batch := BatchRequest{Algorithm: "first-fit-fast", Requests: []Request{
		{Instance: properInstance(1, 10)},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/solve/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Algorithm != "first-fit" {
		t.Fatalf("algorithm %q, want first-fit", out.Results[0].Algorithm)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), `busyd_batch_latency_seconds_count{algorithm="first-fit"}`) ||
		strings.Contains(string(metrics), "first-fit-fast") {
		t.Errorf("latency histograms not labelled first-fit:\n%s", metrics)
	}
}

// TestServerPerRequestDeadline gives a slow exact request a tiny
// timeout_ms inside a healthy batch: it must fail alone.
func TestServerPerRequestDeadline(t *testing.T) {
	ts := newTestServer(t, Config{})
	slow := workload.General(3, workload.Config{N: 17, G: 3, MaxTime: 500, MaxLen: 80})
	batch := BatchRequest{Algorithm: "exact", Requests: []Request{
		{Instance: properInstance(1, 8)},
		{Instance: &slow, TimeoutMS: 1},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/solve/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Error != "" || !out.Results[0].Certified {
		t.Fatalf("healthy request failed: %+v", out.Results[0])
	}
	if !strings.Contains(out.Results[1].Error, "deadline") {
		t.Fatalf("slow request error %q, want deadline", out.Results[1].Error)
	}
}

// TestWireRectRoundTrip checks the 2-D wire codec.
func TestWireRectRoundTrip(t *testing.T) {
	in := job.RectInstance{G: 3, Jobs: []job.RectJob{
		job.NewRectJob(0, 1, 5, 2, 6),
		job.NewRectJob(1, 0, 2, 0, 9),
	}}
	wire := WireRect(in)
	back, err := wire.ToRectInstance()
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 2 || back.G != 3 || back.Jobs[1].Rect.D2.End != 9 {
		t.Fatalf("round trip mangled the instance: %+v", back)
	}
	if _, err := (RectInstance{G: 0}).ToRectInstance(); err == nil {
		t.Fatal("invalid rect instance passed validation")
	}
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]busytime.ProblemKind{
		"":               busytime.KindMinBusy,
		"min-busy":       busytime.KindMinBusy,
		"max-throughput": busytime.KindMaxThroughput,
		"min-busy-2d":    busytime.KindMinBusy2D,
		"online":         busytime.KindOnline,
	} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

// TestServerConcurrentBatches hammers the daemon with concurrent batches
// under -race to shake out handler races.
func TestServerConcurrentBatches(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	const clients = 8
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			batch := BatchRequest{Requests: []Request{
				{Instance: properInstance(int64(c), 10)},
				{Instance: properInstance(int64(c+100), 12)},
			}}
			data, _ := json.Marshal(batch)
			resp, err := http.Post(ts.URL+"/v1/solve/batch", "application/json", bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
				return
			}
			var out BatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			for i, res := range out.Results {
				if !res.Certified {
					errs <- fmt.Errorf("client %d result %d uncertified: %s", c, i, res.Error)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
