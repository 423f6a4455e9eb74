package server

// Stress suites for the serving layer's concurrency surfaces. They are
// interesting under `go test -race` (the dedicated CI step runs them
// with a raised -count); without the race detector they still assert
// the user-visible invariants: snapshots are complete and ordered, and
// every streamed arrival gets exactly one durable answer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestStressTraceRing hammers the lock-free ring from concurrent
// writers while readers snapshot: every snapshot must be strictly
// newest-first with only complete entries, and after the dust settles
// the ring must hold exactly the last `slots` admissions.
func TestStressTraceRing(t *testing.T) {
	const (
		slots     = 64
		writers   = 8
		perWriter = 500
		readers   = 4
	)
	r := newTraceRing(slots)

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	var violations atomic.Int64
	for i := 0; i < readers; i++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.snapshot()
				if len(snap) > slots {
					violations.Add(1)
					return
				}
				for k, e := range snap {
					if e.Endpoint != "stress" || e.Trace == nil || e.Seq == 0 {
						violations.Add(1) // a torn entry escaped the ring
						return
					}
					if k > 0 && snap[k-1].Seq <= e.Seq {
						violations.Add(1) // not strictly newest-first
						return
					}
				}
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				r.add(&TraceEntry{
					Endpoint: "stress",
					TraceID:  fmt.Sprintf("%d-%d", w, i),
					Trace:    &trace.Node{Name: "request"},
				})
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	if n := violations.Load(); n != 0 {
		t.Fatalf("%d snapshot invariant violations under concurrency", n)
	}
	final := r.snapshot()
	if len(final) != slots {
		t.Fatalf("final snapshot has %d entries, want %d", len(final), slots)
	}
	const total = writers * perWriter
	for _, e := range final {
		if e.Seq <= total-slots || e.Seq > total {
			t.Fatalf("final ring holds seq %d, want only the last %d of %d", e.Seq, slots, total)
		}
	}
}

// TestStressStreamSessions runs concurrent stream sessions on one
// Server, each client keeping at most a few arrivals unacknowledged, so
// flushes are partial and every session's reader blocks mid-body while
// its handler commits and acknowledges. Every session must see one
// event per arrival in seq order with non-negative stage timings and
// close byte-equal to its offline certificate, and the flush-size
// histogram must account for every arrival sent.
func TestStressStreamSessions(t *testing.T) {
	const (
		sessions = 8
		window   = 8
	)
	ts := newTestServer(t, Config{})
	strategies := []string{"online-firstfit", "online-bestfit", "online-buckets", "online-budget"}
	errs := make([]error, sessions)
	sent := 0
	var wg sync.WaitGroup
	for k := 0; k < sessions; k++ {
		in := workload.WeightedArrivals(int64(40+k), workload.Config{N: 200 + 10*k, G: 2 + k%4, MaxTime: 900, MaxLen: 60})
		open := StreamOpen{G: in.G, Strategy: strategies[k%len(strategies)], Session: fmt.Sprintf("stress-%d", k)}
		if open.Strategy == "online-budget" {
			open.Budget = in.LowerBound() * 3 / 2
		}
		sent += len(in.Jobs)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = checkWindowedSession(ts.URL, open, in.Jobs, window)
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", k, err)
		}
	}
	samples := metricsSamples(t, ts.URL)
	if got := samples["busyd_stream_flush_size_sum"]; got != float64(sent) {
		t.Errorf("busyd_stream_flush_size_sum = %g, want the %d arrivals sent", got, sent)
	}
	// No client ever has more than window arrivals queued, so no flush
	// can hold more.
	if got := samples["busyd_stream_flush_size_count"]; got*window < float64(sent) {
		t.Errorf("%g flushes for %d arrivals: some flush held more than the %d-arrival window", got, sent, window)
	}
}

// checkWindowedSession streams jobs through windowedStream and checks
// the session's events and close report.
func checkWindowedSession(url string, open StreamOpen, jobs []job.Job, window int) error {
	_, events, last, err := windowedStream(url+"/v1/stream", &open, jobs, window)
	if err != nil {
		return err
	}
	if last.Type != StreamEventClose {
		return fmt.Errorf("ended with %+v, want a close event", last)
	}
	if len(events) != len(jobs) {
		return fmt.Errorf("%d arrivals produced %d events", len(jobs), len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			return fmt.Errorf("event %d carries seq %d", i, ev.Seq)
		}
		if ev.QueueNS < 0 || ev.FlushNS < 0 || ev.SolveNS < 0 {
			return fmt.Errorf("event %d has a negative stage timing: %+v", i, ev)
		}
	}
	arrs := make([]journal.Arrival, len(jobs))
	for i, j := range jobs {
		arrs[i] = journal.ArrivalOf(j)
	}
	_, cert, err := journal.Certify(open.Session, journal.OpenParams{G: open.G, Strategy: open.Strategy, Budget: open.Budget}, arrs)
	if err != nil {
		return err
	}
	got, err := json.Marshal(last)
	if err != nil {
		return err
	}
	want, err := json.Marshal(WireStreamClose(cert.Summary, open.Session, cert.Chain))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("close report diverges from offline replay\n streamed: %s\n offline:  %s", got, want)
	}
	return nil
}
