package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/workload"
)

// streamInstance posts the instance's jobs (in index order, which the
// workload families keep arrival-sorted) as one NDJSON stream session and
// returns the per-arrival events and the close event.
func streamInstance(t *testing.T, url string, open StreamOpen, in job.Instance) ([]StreamEvent, StreamEvent) {
	t.Helper()
	events, closeEv, err := streamInstanceErr(url, open, in)
	if err != nil {
		t.Fatal(err)
	}
	if closeEv == nil {
		t.Fatalf("stream ended after %d events without a close event", len(events))
	}
	return events, *closeEv
}

func streamInstanceErr(url string, open StreamOpen, in job.Instance) ([]StreamEvent, *StreamEvent, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	if err := enc.Encode(open); err != nil {
		return nil, nil, err
	}
	for _, j := range in.Jobs {
		if err := enc.Encode(StreamArrival{ID: j.ID, Start: j.Start(), End: j.End(), Weight: j.Weight}); err != nil {
			return nil, nil, err
		}
	}
	resp, err := http.Post(url+"/v1/stream", "application/x-ndjson", &body)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		return nil, nil, fmt.Errorf("stream status %s: %s", resp.Status, out)
	}
	var events []StreamEvent
	var closeEv *StreamEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return events, closeEv, nil
			}
			return nil, nil, err
		}
		if ev.Type == StreamEventClose {
			e := ev
			closeEv = &e
			continue
		}
		if ev.Type == StreamEventOpen {
			continue
		}
		events = append(events, ev)
	}
}

// TestStreamMatchesOfflineReplay is the acceptance e2e of the streaming
// subsystem: for every served strategy — FirstFit, Buckets, BestFit and
// the weighted budgeted one — the streamed session must emit exactly one
// event per arrival and close with a report byte-equal to what the
// offline replay harness derives from the same seeded workload.
func TestStreamMatchesOfflineReplay(t *testing.T) {
	ts := newTestServer(t, Config{})
	cfg := workload.Config{N: 150, G: 4, MaxTime: 900, MaxLen: 70}
	in := workload.WeightedArrivals(5, cfg)
	budget := in.LowerBound() * 3 / 2

	cases := []StreamOpen{
		{G: in.G, Strategy: "online-firstfit"},
		{G: in.G, Strategy: "online-buckets"},
		{G: in.G, Strategy: "online-bestfit"},
		{G: in.G, Strategy: "online-budget", Budget: budget},
	}
	for _, open := range cases {
		t.Run(open.Strategy, func(t *testing.T) {
			events, closeEv := streamInstance(t, ts.URL, open, in)
			if len(events) != len(in.Jobs) {
				t.Fatalf("%d arrivals produced %d events", len(in.Jobs), len(events))
			}
			for i, ev := range events {
				if ev.Seq != i {
					t.Fatalf("event %d carries seq %d", i, ev.Seq)
				}
				if ev.Type != StreamEventAssign && ev.Type != StreamEventReject {
					t.Fatalf("event %d has type %q", i, ev.Type)
				}
			}

			if closeEv.Session == "" {
				t.Fatal("close event carries no session id")
			}
			arrs := make([]journal.Arrival, len(in.Jobs))
			for i, j := range in.Jobs {
				arrs[i] = journal.ArrivalOf(j)
			}
			p := journal.OpenParams{G: in.G, Strategy: open.Strategy, Budget: open.Budget}
			_, cert, err := journal.Certify(closeEv.Session, p, arrs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(closeEv)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(WireStreamClose(cert.Summary, closeEv.Session, cert.Chain))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("streamed close event diverges from offline replay\n streamed: %s\n offline:  %s", got, want)
			}
			if open.Budget > 0 {
				if closeEv.Cost > open.Budget {
					t.Errorf("budgeted stream cost %d exceeds budget %d", closeEv.Cost, open.Budget)
				}
				if closeEv.Rejected == 0 {
					t.Error("tight budget rejected nothing; admission control untested")
				}
			}
		})
	}
}

// TestStreamLiveTelemetry checks the per-event fields are self-consistent:
// costs accumulate by the marginals, lower bounds are monotone, and the
// ratio matches cost/bound.
func TestStreamLiveTelemetry(t *testing.T) {
	ts := newTestServer(t, Config{})
	in := workload.Arrivals(9, workload.Config{N: 80, G: 3, MaxTime: 500, MaxLen: 50})
	events, closeEv := streamInstance(t, ts.URL, StreamOpen{G: in.G, Strategy: "online-bestfit"}, in)
	var cost, lb int64
	for i, ev := range events {
		cost += ev.Marginal
		if ev.Cost != cost {
			t.Fatalf("event %d: running cost %d, marginals sum to %d", i, ev.Cost, cost)
		}
		if ev.LowerBound < lb {
			t.Fatalf("event %d: lower bound fell %d -> %d", i, lb, ev.LowerBound)
		}
		lb = ev.LowerBound
		if ev.Cost < ev.LowerBound {
			t.Fatalf("event %d: cost %d below its own lower bound %d", i, ev.Cost, ev.LowerBound)
		}
	}
	if closeEv.Cost != cost || closeEv.LowerBound != lb {
		t.Errorf("close event (cost %d, LB %d) disagrees with event trail (cost %d, LB %d)",
			closeEv.Cost, closeEv.LowerBound, cost, lb)
	}
}

// TestStreamHeaderErrors exercises the pre-stream failure modes, which
// must be plain HTTP errors since no event has been written yet.
func TestStreamHeaderErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		method string
		body   string
		status int
		errSub string // substring of the error text, when pinned
	}{
		{"get method", http.MethodGet, "", http.StatusMethodNotAllowed, ""},
		{"empty body", http.MethodPost, "", http.StatusBadRequest, ""},
		{"malformed header", http.MethodPost, "{", http.StatusBadRequest, ""},
		{"zero capacity", http.MethodPost, `{"g":0}`, http.StatusBadRequest, ""},
		{"negative budget", http.MethodPost, `{"g":2,"budget":-5}`, http.StatusBadRequest, ""},
		{"budget above the sane cap", http.MethodPost, `{"g":2,"budget":4611686018427387904}`, http.StatusBadRequest, ""},
		{"unknown strategy", http.MethodPost, `{"g":2,"strategy":"nope"}`, http.StatusBadRequest, ""},
		{"budget on non-budgeted strategy", http.MethodPost, `{"g":2,"strategy":"online-firstfit","budget":10}`, http.StatusBadRequest,
			"does not support a budget (use online-budget)"},
		{"budget strategy without budget", http.MethodPost, `{"g":2,"strategy":"online-budget"}`, http.StatusBadRequest,
			"needs a positive budget (it admits everything without one)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+"/v1/stream", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Errorf("status %d, want %d", resp.StatusCode, c.status)
			}
			if !strings.Contains(string(body), c.errSub) {
				t.Errorf("error %s, want it to contain %q", body, c.errSub)
			}
		})
	}
}

// TestStreamRefusalWithOpenBody refuses sessions while the client still
// holds the request body open, as a streaming client does. The refusal
// must arrive at once: on a reply that kept the connection alive,
// net/http would first drain the unread body, which never ends.
func TestStreamRefusalWithOpenBody(t *testing.T) {
	ts := newTestServer(t, Config{})
	in := workload.Arrivals(3, workload.Config{N: 20, G: 2, MaxTime: 200, MaxLen: 20})
	streamInstance(t, ts.URL, StreamOpen{G: in.G, Strategy: "online-firstfit", Session: "journaled-1"}, in)

	cases := []struct {
		name   string
		open   string
		status int
	}{
		{"journaled session id", `{"g":2,"strategy":"online-firstfit","session":"journaled-1"}`, http.StatusConflict},
		{"rejected open line", `{"g":0}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pr, pw := io.Pipe()
			writerDone := make(chan struct{})
			go func() {
				defer close(writerDone)
				_, err := io.WriteString(pw, c.open+"\n")
				enc := json.NewEncoder(pw)
				for i := int64(0); err == nil && i < 3; i++ {
					err = enc.Encode(StreamArrival{ID: int(i), Start: i, End: i + 5, Weight: 1})
				}
			}()
			// A client timeout alone would not end the wait: the
			// transport joins its body writer, which blocks on the pipe.
			// Breaking the pipe after 5s ends both.
			timer := time.AfterFunc(5*time.Second, func() { pr.CloseWithError(errors.New("no reply within 5s")) })
			resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", pr)
			onTime := timer.Stop()
			pr.CloseWithError(io.ErrClosedPipe)
			<-writerDone
			if !onTime {
				t.Fatal("no reply within 5s while the body was open")
			}
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Errorf("status %d, want %d", resp.StatusCode, c.status)
			}
		})
	}
}

// TestStreamInStreamErrors exercises failures after the status is
// committed: they must arrive as terminal error events on a 200 stream.
func TestStreamInStreamErrors(t *testing.T) {
	ts := newTestServer(t, Config{MaxJobs: 4})
	cases := []struct {
		name     string
		arrivals string
		substr   string
	}{
		{"malformed arrival", `{"id":0,"start":0,"end":5}` + "\n" + `nope`, "decoding arrival"},
		{"empty interval", `{"id":0,"start":5,"end":5}`, "empty interval"},
		{"negative length", `{"id":0,"start":9,"end":3}`, "end 3 < start 9"},
		{"out of order", `{"id":0,"start":10,"end":20}` + "\n" + `{"id":1,"start":4,"end":30}`, "before the stream clock"},
		{"over the arrival cap", strings.Repeat(`{"id":0,"start":0,"end":5}`+"\n", 5), "exceeds limit 4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := `{"g":2,"strategy":"online-firstfit"}` + "\n" + c.arrivals
			resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200 with a terminal error event", resp.StatusCode)
			}
			var last StreamEvent
			dec := json.NewDecoder(resp.Body)
			for {
				var ev StreamEvent
				if err := dec.Decode(&ev); err != nil {
					break
				}
				last = ev
			}
			if last.Type != StreamEventError {
				t.Fatalf("last event %+v, want a terminal error event", last)
			}
			if !strings.Contains(last.Error, c.substr) {
				t.Errorf("error %q does not mention %q", last.Error, c.substr)
			}
		})
	}
}

// TestStreamBodyCap checks the stream endpoint honors the daemon's
// byte-level admission bound: a session exceeding MaxBodyBytes ends with
// a terminal error event naming the limit instead of growing memory.
func TestStreamBodyCap(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 256})
	in := workload.Arrivals(3, workload.Config{N: 50, G: 2, MaxTime: 300, MaxLen: 20})
	_, _, err := streamInstanceErr(ts.URL, StreamOpen{G: in.G, Strategy: "online-firstfit"}, in)
	// The server may cut the connection mid-request (MaxBytesReader) or
	// deliver the terminal error event, depending on write timing; both
	// are acceptable, a silent successful close is not.
	if err == nil {
		events, closeEv, _ := streamInstanceErr(ts.URL, StreamOpen{G: in.G, Strategy: "online-firstfit"}, in)
		if closeEv != nil {
			t.Fatalf("oversized stream closed cleanly after %d events", len(events))
		}
		if n := len(events); n > 0 && events[n-1].Type == StreamEventError {
			if !strings.Contains(events[n-1].Error, "body limit") {
				t.Errorf("error %q does not name the body limit", events[n-1].Error)
			}
		}
	}
}

// TestStreamSessionsConcurrentWithBatch drives two concurrent stream
// sessions plus a solve batch on one Server under the race detector,
// asserting per-session isolation: each session's machine ids are its
// own dense opening order regardless of what the sibling session or the
// batch workers are doing, and the shared metrics counters add up.
func TestStreamSessionsConcurrentWithBatch(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfgA := workload.Config{N: 120, G: 3, MaxTime: 600, MaxLen: 50}
	cfgB := workload.Config{N: 90, G: 5, MaxTime: 400, MaxLen: 30}
	inA := workload.Arrivals(21, cfgA)
	inB := workload.BurstyArrivals(22, cfgB)

	type streamOut struct {
		events  []StreamEvent
		closeEv *StreamEvent
		err     error
	}
	var wg sync.WaitGroup
	outs := make([]streamOut, 2)
	run := func(i int, open StreamOpen, in job.Instance) {
		defer wg.Done()
		events, closeEv, err := streamInstanceErr(ts.URL, open, in)
		outs[i] = streamOut{events, closeEv, err}
	}
	wg.Add(2)
	go run(0, StreamOpen{G: inA.G, Strategy: "online-firstfit"}, inA)
	go run(1, StreamOpen{G: inB.G, Strategy: "online-bestfit"}, inB)

	var batchErr error
	var batchOut BatchResponse
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := BatchRequest{}
		for i := 0; i < 8; i++ {
			batch.Requests = append(batch.Requests, Request{Instance: properInstance(int64(30+i), 40)})
		}
		data, err := json.Marshal(batch)
		if err != nil {
			batchErr = err
			return
		}
		resp, err := http.Post(ts.URL+"/v1/solve/batch", "application/json", bytes.NewReader(data))
		if err != nil {
			batchErr = err
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			batchErr = fmt.Errorf("batch status %s: %s", resp.Status, body)
			return
		}
		batchErr = json.Unmarshal(body, &batchOut)
	}()
	wg.Wait()

	if batchErr != nil {
		t.Fatalf("concurrent batch: %v", batchErr)
	}
	for _, res := range batchOut.Results {
		if res.Error != "" || !res.Certified {
			t.Errorf("batch result %+v not certified", res)
		}
	}
	for i, out := range outs {
		if out.err != nil {
			t.Fatalf("stream %d: %v", i, out.err)
		}
		if out.closeEv == nil {
			t.Fatalf("stream %d ended without a close event", i)
		}
		// Per-session isolation: machine ids are a dense 0..n sequence in
		// opening order, unperturbed by the sibling session.
		next := 0
		for _, ev := range out.events {
			if ev.Type != StreamEventAssign {
				t.Fatalf("stream %d: unexpected event %+v", i, ev)
			}
			if ev.Opened {
				if ev.Machine != next {
					t.Fatalf("stream %d: opened machine %d, want %d (ids leaked across sessions?)", i, ev.Machine, next)
				}
				next++
			} else if ev.Machine < 0 || ev.Machine >= next {
				t.Fatalf("stream %d: reused machine %d with only %d opened", i, ev.Machine, next)
			}
		}
		if out.closeEv.MachinesOpened != next {
			t.Errorf("stream %d: close reports %d machines, events opened %d", i, out.closeEv.MachinesOpened, next)
		}
	}

	// Shared metrics: both sessions' arrivals are counted, no stream is
	// still open, and both endpoints' request counters moved.
	wantEvents := int64(len(inA.Jobs) + len(inB.Jobs))
	if got := s.metrics.streamAssigned.Load() + s.metrics.streamRejected.Load(); got != wantEvents {
		t.Errorf("stream event counters = %d, want %d", got, wantEvents)
	}
	if got := s.metrics.streamsOpen.Load(); got != 0 {
		t.Errorf("streams-open gauge = %d after both sessions closed", got)
	}
	if got := s.metrics.requestsStream.Load(); got != 2 {
		t.Errorf("stream request counter = %d, want 2", got)
	}
	if got := s.metrics.requestsBatch.Load(); got != 1 {
		t.Errorf("batch request counter = %d, want 1", got)
	}
}

// windowedStream runs one stream session whose client writes through an
// io.Pipe and keeps at most window arrivals unacknowledged, so the
// server's flushes are partial and its reader blocks mid-body. header,
// when non-nil, is sent before the arrivals (a resume sends none). It
// returns the open event, the placement events, and the terminal close
// or error event.
func windowedStream(target string, header *StreamOpen, jobs []job.Job, window int) (StreamEvent, []StreamEvent, StreamEvent, error) {
	var openEv, last StreamEvent
	pr, pw := io.Pipe()
	tokens := make(chan struct{}, window)
	abort := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		enc := json.NewEncoder(pw)
		if header != nil && enc.Encode(header) != nil {
			return
		}
		for _, j := range jobs {
			select {
			case tokens <- struct{}{}:
			case <-abort:
				return
			}
			if enc.Encode(StreamArrival{ID: j.ID, Start: j.Start(), End: j.End(), Weight: j.Weight}) != nil {
				return
			}
		}
		pw.Close()
	}()
	defer func() {
		close(abort)
		pr.CloseWithError(io.ErrClosedPipe)
		<-writerDone
	}()

	resp, err := http.Post(target, "application/x-ndjson", pr)
	if err != nil {
		return openEv, nil, last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		return openEv, nil, last, fmt.Errorf("stream status %s: %s", resp.Status, out)
	}
	var events []StreamEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			return openEv, events, last, fmt.Errorf("after %d events: %v", len(events), err)
		}
		switch ev.Type {
		case StreamEventOpen:
			openEv = ev
		case StreamEventAssign, StreamEventReject:
			events = append(events, ev)
			<-tokens
		default:
			return openEv, events, ev, nil
		}
	}
}

// faultStore is a journal.Store whose failAt-th Append of each session
// (the open record is the first) fails once; every other call passes
// through.
type faultStore struct {
	journal.Store
	failAt int

	mu      sync.Mutex
	appends map[string]int
}

var errInjected = errors.New("injected append failure")

func (s *faultStore) Append(session string, recs []journal.Record) error {
	s.mu.Lock()
	s.appends[session]++
	n := s.appends[session]
	s.mu.Unlock()
	if n == s.failAt {
		return errInjected
	}
	return s.Store.Append(session, recs)
}

// metricsSamples scrapes and parses the server's /metrics.
func metricsSamples(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(text))
}

// TestStreamJournalFaultIsServerError fails one journal append in the
// middle of a session: the flushes committed before it stay
// acknowledged, one error event follows, the fault counts as a stream
// error and not as the client's bad request, and resuming from the
// acknowledged count closes byte-equal to an uninterrupted session.
func TestStreamJournalFaultIsServerError(t *testing.T) {
	const session = "journal-fault-1"
	in := workload.WeightedArrivals(7, workload.Config{N: 120, G: 4, MaxTime: 700, MaxLen: 60})
	open := StreamOpen{G: in.G, Strategy: "online-bestfit", Session: session}
	// The open record, one acknowledged flush, then the failing commit.
	ts := newTestServer(t, Config{Journal: &faultStore{Store: journal.NewMemStore(), failAt: 3, appends: map[string]int{}}})

	_, events, last, err := windowedStream(ts.URL+"/v1/stream", &open, in.Jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if last.Type != StreamEventError || !strings.Contains(last.Error, errInjected.Error()) {
		t.Fatalf("stream ended with %+v, want an error event naming the append failure", last)
	}
	acked := len(events)
	if acked == 0 || acked >= len(in.Jobs) {
		t.Fatalf("%d of %d arrivals acknowledged before the failing append", acked, len(in.Jobs))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d carries seq %d", i, ev.Seq)
		}
	}
	samples := metricsSamples(t, ts.URL)
	if got := samples[`busyd_rejected_total{reason="bad_request"}`]; got != 0 {
		t.Errorf("a journal fault was billed to the client: bad_request = %g", got)
	}
	if got := samples["busyd_stream_errors_total"]; got != 1 {
		t.Errorf("busyd_stream_errors_total = %g, want 1", got)
	}

	openEv, resumed, closeA := resumeStream(t, ts.URL, session, acked, in.Jobs[acked:])
	if openEv.Arrivals != acked {
		t.Fatalf("journal holds %d arrivals after the fault, %d were acknowledged", openEv.Arrivals, acked)
	}
	if len(resumed) != len(in.Jobs)-acked {
		t.Fatalf("resumed stream delivered %d events, want %d", len(resumed), len(in.Jobs)-acked)
	}
	_, closeB := streamInstance(t, newTestServer(t, Config{}).URL, open, in)
	gotA, err := json.Marshal(closeA)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := json.Marshal(closeB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, gotB) {
		t.Errorf("resumed close diverges from an uninterrupted session\n resumed:       %s\n uninterrupted: %s", gotA, gotB)
	}
}

// TestStreamEarlyEndJoinsReader ends sessions on a journal fault while
// the client is still sending. The handler must not return while its
// reader is inside the request body (net/http would panic on a
// concurrent Body.Read and log it), and the response must close the
// connection so unread arrivals are never parsed as a new request.
func TestStreamEarlyEndJoinsReader(t *testing.T) {
	s, err := New(Config{Journal: &faultStore{Store: journal.NewMemStore(), failAt: 2, appends: map[string]int{}}})
	if err != nil {
		t.Fatal(err)
	}
	var errLog syncBuffer
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Start()

	for k := 0; k < 20; k++ {
		// The client sends until it has read the error event and closes
		// the pipe.
		pr, pw := io.Pipe()
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			enc := json.NewEncoder(pw)
			err := enc.Encode(StreamOpen{G: 2, Strategy: "online-firstfit"})
			for i := int64(0); err == nil; i++ {
				err = enc.Encode(StreamArrival{ID: int(i), Start: i, End: i + 5, Weight: 1})
			}
		}()
		var last StreamEvent
		resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", pr)
		if err == nil {
			dec := json.NewDecoder(resp.Body)
			for dec.Decode(&last) == nil {
				if last.Type == StreamEventError {
					break
				}
			}
			resp.Body.Close()
		}
		pr.CloseWithError(io.ErrClosedPipe)
		<-writerDone
		if err != nil {
			t.Fatalf("session %d: %v", k, err)
		}
		if last.Type != StreamEventError {
			t.Fatalf("session %d ended with %+v, want an error event", k, last)
		}
		if !resp.Close {
			t.Fatalf("session %d: stream response keeps its connection open", k)
		}
	}
	ts.Close()
	if out := errLog.String(); out != "" {
		t.Errorf("server error log after early-ended sessions:\n%s", out)
	}
}
