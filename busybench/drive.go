package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	busytime "repro"
	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/server"
)

// clientStats is what one closed-loop client observed; a pass merges
// its clients' stats in client order.
type clientStats struct {
	attempted, failed int
	failures          []string
	jobs              int64
	start             time.Time    // the pass's start
	done              []completion // per request (or arrival)
	rtNS              int64        // Σ round trip
	cost, lb          int64        // Σ served cost and Observation 2.1 bound
	outcomes          map[string]int
	rechecks          []recheck
	closes            []sessionClose
	queueNS, flushNS  []int64
	openSum, events   int64
	digest            *digest
}

func newClientStats() *clientStats {
	return &clientStats{outcomes: map[string]int{}, digest: newDigest()}
}

// record notes a completed operation of jobs jobs and its latency.
func (s *clientStats) record(jobs int64, lat time.Duration) {
	s.done = append(s.done, completion{at: time.Since(s.start).Nanoseconds(), jobs: jobs, lat: lat.Nanoseconds()})
	s.rtNS += lat.Nanoseconds()
}

// fail counts a failed operation, keeping the first messages.
func (s *clientStats) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// passStats is one timed pass: the merged client stats and the wall
// time from the first send to the last client finishing.
type passStats struct {
	clientStats
	wall    time.Duration
	digests [][]byte
}

func (p *passStats) merge(c *clientStats) {
	p.attempted += c.attempted
	p.failed += c.failed
	for _, f := range c.failures {
		if len(p.failures) < 5 {
			p.failures = append(p.failures, f)
		}
	}
	p.jobs += c.jobs
	p.done = append(p.done, c.done...)
	p.rtNS += c.rtNS
	p.cost += c.cost
	p.lb += c.lb
	for k, v := range c.outcomes {
		p.outcomes[k] += v
	}
	p.rechecks = append(p.rechecks, c.rechecks...)
	p.closes = append(p.closes, c.closes...)
	p.queueNS = append(p.queueNS, c.queueNS...)
	p.flushNS = append(p.flushNS, c.flushNS...)
	p.openSum += c.openSum
	p.events += c.events
	p.digests = append(p.digests, c.digest.sum())
}

// runClients runs fn once per client concurrently and merges the
// results.
func runClients(clients int, fn func(c int, out *clientStats)) *passStats {
	outs := make([]*clientStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range outs {
		outs[c] = newClientStats()
		outs[c].start = start
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, outs[c])
		}(c)
	}
	wg.Wait()
	p := &passStats{clientStats: *newClientStats(), wall: time.Since(start)}
	p.start = start
	for _, o := range outs {
		p.merge(o)
	}
	sort.Slice(p.done, func(i, j int) bool { return p.done[i].at < p.done[j].at })
	return p
}

// recheck is a served schedule kept for client-side re-certification
// after the pass.
type recheck struct {
	in      job.Instance
	machine []int
	cost    int64
	lb      int64
}

// certifyLocally re-derives a served result's certificate from the
// machine array and the instance the client sent.
func (r recheck) certifyLocally() error {
	res := busytime.ResultOf("served", busytime.Schedule{Instance: r.in, Machine: r.machine})
	if err := res.Certificate(); err != nil {
		return err
	}
	if res.Cost != r.cost || res.LowerBound != r.lb || res.Scheduled != len(r.in.Jobs) {
		return fmt.Errorf("served cost %d / bound %d, schedule gives %d / %d with %d of %d jobs",
			r.cost, r.lb, res.Cost, res.LowerBound, res.Scheduled, len(r.in.Jobs))
	}
	return nil
}

// sampled reports whether request k of client c is in the seeded
// subset re-certified after a timed pass (one in eight).
func sampled(seed int64, c, k int) bool {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d/%d/%d", seed, c, k)
	return h.Sum32()%8 == 0
}

// post sends one JSON body and reads the whole response, timing the
// round trip.
func post(hc *http.Client, url string, body []byte) (status int, resp []byte, rt time.Duration, err error) {
	t0 := time.Now()
	r, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	resp, err = io.ReadAll(r.Body)
	rt = time.Since(t0)
	r.Body.Close()
	return r.StatusCode, resp, rt, err
}

// checkResult applies the serving contract to one solve result: no
// error, certified, every job scheduled.
func checkResult(res server.Result, in job.Instance) error {
	switch {
	case res.Error != "":
		return errors.New(res.Error)
	case !res.Certified:
		return fmt.Errorf("uncertified result: %s", res.CertificateError)
	case res.N != len(in.Jobs) || res.Scheduled != res.N || len(res.Machine) != res.N:
		return fmt.Errorf("result covers %d/%d jobs with %d machines entries, sent %d", res.Scheduled, res.N, len(res.Machine), len(in.Jobs))
	}
	return nil
}

// account records a certified result in the client's stats.
func (s *clientStats) account(res server.Result, in job.Instance, keep bool) {
	s.jobs += int64(res.N)
	s.cost += res.Cost
	s.lb += res.LowerBound
	s.outcomes[res.Cache]++
	if keep {
		s.rechecks = append(s.rechecks, recheck{in: in, machine: res.Machine, cost: res.Cost, lb: res.LowerBound})
	}
}

// coldRunner is the solve-cold workload: single-instance POST /v1/solve
// of distinct instances against a reopt cache the warm-up filled.
type coldRunner struct {
	seed       int64
	hc         *http.Client
	all        bool       // re-certify every result, not a sample
	warmN      int        // warm-up requests per client
	warmBodies [][][]byte // per client
}

func (w *coldRunner) use(hc *http.Client, all bool) { w.hc, w.all = hc, all }

// prepare encodes the warm-up requests ahead of the timed set-up.
func (w *coldRunner) prepare(clients int) {
	w.warmBodies = make([][][]byte, clients)
	for c := range w.warmBodies {
		for k := 0; k < w.warmN; k++ {
			in := coldInstance(w.seed, streamWarm, int64(c), k)
			body, err := json.Marshal(server.Request{Instance: &in})
			if err != nil {
				panic(err)
			}
			w.warmBodies[c] = append(w.warmBodies[c], body)
		}
	}
}

func (w *coldRunner) warm(url string, clients int) error {
	p := runClients(clients, func(c int, out *clientStats) {
		for k, body := range w.warmBodies[c] {
			out.attempted++
			status, resp, _, err := post(w.hc, url+"/v1/solve", body)
			var res server.Result
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(resp, &res)
			}
			if err != nil || status != http.StatusOK || !res.Certified {
				out.fail("warm-up solve %d/%d: status %d: %v %s", c, k, status, err, resp)
			}
		}
	})
	w.warmBodies = nil
	return p.err()
}

func (w *coldRunner) run(url string, clients, first, count int) *passStats {
	return runClients(clients, func(c int, out *clientStats) {
		for k := first; k < first+count; k++ {
			w.solve(url, c, k, out)
		}
	})
}

// solve sends client c's k-th timed request.
func (w *coldRunner) solve(url string, c, k int, out *clientStats) {
	in := coldInstance(w.seed, streamTimed, int64(c), k)
	body, err := json.Marshal(server.Request{Instance: &in})
	if err != nil {
		out.fail("encoding request: %v", err)
		return
	}
	out.digest.bytes(body)
	out.attempted++
	status, resp, rt, err := post(w.hc, url+"/v1/solve", body)
	if err != nil || status != http.StatusOK {
		out.fail("solve %d/%d: status %d: %v %s", c, k, status, err, resp)
		return
	}
	var res server.Result
	if err := json.Unmarshal(resp, &res); err != nil {
		out.fail("solve %d/%d: decoding: %v", c, k, err)
		return
	}
	if err := checkResult(res, in); err != nil {
		out.fail("solve %d/%d: %v", c, k, err)
		return
	}
	out.record(int64(res.N), rt)
	out.account(res, in, w.all || sampled(w.seed, c, k))
}

// resubmitRunner is the resubmit workload: POST /v1/solve/batch of
// seeded edits, one per base a client owns, against the latest version
// of each base.
type resubmitRunner struct {
	seed    int64
	hc      *http.Client
	all     bool
	clients []*resubmitClient
}

type resubmitClient struct {
	latest []job.Instance
	ids    []string // the daemon's result id of each latest version
	nextID int      // id of the next added job
	batch  int      // index of the next batch
}

func (w *resubmitRunner) use(hc *http.Client, all bool) { w.hc, w.all = hc, all }

func (w *resubmitRunner) prepare(int) {}

func (w *resubmitRunner) warm(url string, clients int) error {
	w.clients = make([]*resubmitClient, clients)
	p := runClients(clients, func(c int, out *clientStats) {
		// The bases' initial versions go as one batch of plain solves.
		rc := &resubmitClient{nextID: 1 << 30, ids: make([]string, len(batchKinds))}
		w.clients[c] = rc
		edits := make([]edit, len(batchKinds))
		for b := range edits {
			rc.latest = append(rc.latest, resubmitBase(w.seed, int64(c), b))
			edits[b] = edit{base: b, send: rc.latest[b], next: rc.latest[b]}
		}
		w.send(url, c, -1, edits, out, false)
	})
	return p.err()
}

func (w *resubmitRunner) run(url string, clients, first, count int) *passStats {
	return runClients(clients, func(c int, out *clientStats) {
		rc := w.clients[c]
		for i := 0; i < count; i++ {
			edits := resubmitBatch(w.seed, int64(c), rc.batch, rc.latest, &rc.nextID)
			w.send(url, c, rc.batch, edits, out, true)
			rc.batch++
		}
	})
}

// batchBody encodes a batch of edits. The body is assembled from each
// instance's own encoding, so the digest covers exactly the bytes sent
// apart from the base ids.
func batchBody(edits []edit, ids []string, d *digest) ([]byte, error) {
	body := []byte(`{"requests":[`)
	for i, e := range edits {
		inst, err := json.Marshal(e.send)
		if err != nil {
			return nil, err
		}
		d.bytes([]byte(e.kind))
		d.bytes(inst)
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"instance":`...)
		body = append(body, inst...)
		if e.useID {
			body = append(body, `,"base_id":`...)
			body = strconv.AppendQuote(body, ids[e.base])
		}
		body = append(body, '}')
	}
	return append(body, "]}"...), nil
}

// send posts one batch of edits and advances the bases' latest versions.
func (w *resubmitRunner) send(url string, c, k int, edits []edit, out *clientStats, timed bool) {
	rc := w.clients[c]
	body, err := batchBody(edits, rc.ids, out.digest)
	if err != nil {
		out.fail("encoding batch: %v", err)
		return
	}
	out.attempted++
	status, resp, rt, err := post(w.hc, url+"/v1/solve/batch", body)
	if err != nil || status != http.StatusOK {
		out.fail("batch %d/%d: status %d: %v %s", c, k, status, err, resp)
		return
	}
	var br server.BatchResponse
	if err := json.Unmarshal(resp, &br); err != nil || len(br.Results) != len(edits) {
		out.fail("batch %d/%d: decoding %d results: %v", c, k, len(br.Results), err)
		return
	}
	ok := true
	for i, res := range br.Results {
		e := edits[i]
		if err := checkResult(res, e.send); err != nil {
			out.fail("batch %d/%d item %d (%s): %v", c, k, i, e.kind, err)
			ok = false
			continue
		}
		out.account(res, e.send, timed && (w.all || sampled(w.seed, c, k*len(edits)+i)))
		if e.kind != "" {
			out.outcomes[e.kind+"->"+res.Cache]++
		}
		rc.latest[e.base] = e.next
		rc.ids[e.base] = res.ID
	}
	if timed && ok {
		var jobs int64
		for _, res := range br.Results {
			jobs += int64(res.N)
		}
		out.record(jobs, rt)
	}
}

// streamRunner is the stream-journal workload: each client streams
// sessions back to back over POST /v1/stream, keeping streamWindow
// arrivals unacknowledged.
type streamRunner struct {
	seed int64
	hc   *http.Client
}

// streamWindow is the number of arrivals a client keeps in flight.
const streamWindow = 32

// warmSessions is the warm-up size per client.
const warmSessions = 1

func (w *streamRunner) use(hc *http.Client, _ bool) { w.hc = hc }

func (w *streamRunner) prepare(int) {}

func (w *streamRunner) warm(url string, clients int) error {
	p := runClients(clients, func(c int, out *clientStats) {
		for k := 0; k < warmSessions; k++ {
			w.session(url, streamWarm, c, k, out)
		}
	})
	return p.err()
}

func (w *streamRunner) run(url string, clients, first, count int) *passStats {
	return runClients(clients, func(c int, out *clientStats) {
		for k := first; k < first+count; k++ {
			w.session(url, streamTimed, c, k, out)
		}
	})
}

// sessionClose is a session's close event as received, kept for the
// offline replay check after the pass.
type sessionClose struct {
	stream int64
	client int
	k      int
	open   server.StreamOpen
	ev     server.StreamEvent
}

var errSessionAborted = errors.New("busybench: session aborted")

// session streams one session: a writer goroutine sends the header and
// the arrivals, holding a window token per unacknowledged arrival; this
// goroutine reads the events and times each arrival from its send to
// its assign or reject event.
func (w *streamRunner) session(url string, stream int64, c, k int, out *clientStats) {
	open := streamOpen(w.seed, stream, int64(c), k)
	gen := newArrivalGen(w.seed, stream, int64(c), k)
	out.digest.ints(int64(open.G), open.Budget)
	out.digest.bytes([]byte(open.Strategy + "/" + open.Session))
	out.attempted++

	pr, pw := io.Pipe()
	tokens := make(chan struct{}, streamWindow)
	// Sized to the window plus one: the writer stamps an arrival only
	// after taking a token, so stamps never outnumber tokens.
	sent := make(chan time.Time, streamWindow+1)
	abort := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		enc := json.NewEncoder(pw)
		err := enc.Encode(open)
		for i := 0; i < sessionArrivals && err == nil; i++ {
			a := gen.next()
			out.digest.ints(int64(a.ID), a.Start, a.End, a.Weight)
			select {
			case tokens <- struct{}{}:
			case <-abort:
				err = errSessionAborted
				continue
			}
			sent <- time.Now()
			err = enc.Encode(a)
		}
		if err == nil {
			err = pw.Close()
		}
		writerDone <- err
	}()
	defer func() {
		close(abort)
		pr.CloseWithError(errSessionAborted)
		<-writerDone
	}()

	req, err := http.NewRequest(http.MethodPost, url+"/v1/stream", pr)
	if err != nil {
		out.fail("session %s: %v", open.Session, err)
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := w.hc.Do(req)
	if err != nil {
		out.fail("session %s: %v", open.Session, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		out.fail("session %s: %s %s", open.Session, resp.Status, body)
		return
	}
	dec := json.NewDecoder(resp.Body)
	acked := 0
	for {
		var ev server.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			out.fail("session %s: after %d events: %v", open.Session, acked, err)
			return
		}
		switch ev.Type {
		case server.StreamEventOpen:
		case server.StreamEventAssign, server.StreamEventReject:
			out.record(1, time.Since(<-sent))
			<-tokens
			acked++
			out.queueNS = append(out.queueNS, ev.QueueNS)
			out.flushNS = append(out.flushNS, ev.FlushNS)
			out.openSum += int64(ev.Open)
			out.events++
		case server.StreamEventClose:
			out.jobs += int64(acked)
			if acked != sessionArrivals || ev.Arrivals != sessionArrivals {
				out.fail("session %s: %d arrivals sent, %d acknowledged, close reports %d", open.Session, sessionArrivals, acked, ev.Arrivals)
				return
			}
			out.cost += ev.Cost
			out.lb += ev.LowerBound
			out.outcomes[open.Strategy+" admitted"] += ev.Admitted
			out.outcomes[open.Strategy+" rejected"] += ev.Rejected
			out.outcomes[open.Strategy+" cost"] += int(ev.Cost)
			ev.Trace = nil
			out.closes = append(out.closes, sessionClose{stream: stream, client: c, k: k, open: open, ev: ev})
			return
		default:
			out.fail("session %s: %s event: %s", open.Session, ev.Type, ev.Error)
			return
		}
	}
}

// verifyCloses checks every close report of a pass against its offline
// replay (journal.Certify over the regenerated arrivals), byte for byte,
// and verifies each session's journal in the daemon's store.
// The sessions are checked on one goroutine per client.
func (w *streamRunner) verifyCloses(closes []sessionClose, store journal.Store) []string {
	errs := make([]error, len(closes))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(closes); i = int(next.Add(1)) - 1 {
				errs[i] = w.verifyClose(closes[i], store)
			}
		}()
	}
	wg.Wait()
	var bad []string
	for i, err := range errs {
		if err != nil {
			bad = append(bad, fmt.Sprintf("session %s: %v", closes[i].open.Session, err))
		}
	}
	return bad
}

func (w *streamRunner) verifyClose(sc sessionClose, store journal.Store) error {
	gen := newArrivalGen(w.seed, sc.stream, int64(sc.client), sc.k)
	arrivals := make([]journal.Arrival, sessionArrivals)
	for i := range arrivals {
		a := gen.next()
		arrivals[i] = journal.Arrival{ID: a.ID, Start: a.Start, End: a.End, Weight: a.Weight}
	}
	p := journal.OpenParams{G: sc.open.G, Strategy: sc.ev.Strategy, Budget: sc.open.Budget}
	_, cert, err := journal.Certify(sc.open.Session, p, arrivals)
	if err != nil {
		return fmt.Errorf("offline replay: %w", err)
	}
	want, err := json.Marshal(server.WireStreamClose(cert.Summary, sc.open.Session, cert.Chain))
	if err != nil {
		return err
	}
	got, err := json.Marshal(sc.ev)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("close report %s differs from offline replay %s", got, want)
	}
	recs, err := store.Read(sc.open.Session)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	jc, err := journal.Verify(recs)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if jc.Chain != sc.ev.Chain {
		return fmt.Errorf("journal chain %s, close report %s", jc.Chain, sc.ev.Chain)
	}
	return nil
}

// err summarizes a warm-up pass's failures.
func (p *passStats) err() error {
	if p.failed == 0 {
		return nil
	}
	return fmt.Errorf("busybench: %d of %d operations failed: %v", p.failed, p.attempted, p.failures)
}
