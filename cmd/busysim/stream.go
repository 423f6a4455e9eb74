package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runStream is the `busysim stream` subcommand: it replays a generated
// workload as a live NDJSON arrival stream against a running busyd
// (POST /v1/stream), prints the daemon's per-event and closing
// competitive-ratio telemetry, and — unless -verify=false — re-derives
// the expected close report (including the journal certificate chain)
// with the in-process offline harness, requires the daemon's to match it
// byte for byte, then fetches the session journal and verifies the hash
// chain independently.
//
// Two extra modes exercise durable sessions end to end:
//
//	-session run1 -kill-after 250   send arrivals until 250 events are
//	                                confirmed, then drop the connection
//	                                (the simulated client crash)
//	-session run1 -resume 250       continue that session: the daemon
//	                                replays the journal tail from seq
//	                                250 and the stream picks up where
//	                                the journal left off
func runStream(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("busysim stream", flag.ContinueOnError)
	inst := addInstanceFlags(fs, "arrivals", workload.Config{N: 200, G: 4, MaxTime: 2000, MaxLen: 80}, false)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:8080", "busyd base URL")
		strategy  = fs.String("strategy", "", "online strategy (default: daemon's strongest)")
		budget    = fs.Int64("budget", 0, "busy-time budget for admission-control strategies")
		events    = fs.Bool("events", false, "print every assignment event, not just the close report")
		verify    = fs.Bool("verify", true, "cross-check the close report and journal chain against an offline replay")
		traceOn   = fs.Bool("trace", false, "send a traceparent and print the session's stage breakdown from the close report")
		sessionID = fs.String("session", "", "stable session id (required to resume; default: server-generated)")
		killAfter = fs.Int("kill-after", -1, "drop the connection once this many events are confirmed (simulated crash)")
		resumeAt  = fs.Int("resume", -1, "resume the -session stream, replaying journaled events from this seq")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	resume := *resumeAt >= 0
	if resume && *sessionID == "" {
		return fmt.Errorf("stream: -resume needs -session")
	}

	in, err := inst.load()
	if err != nil {
		return err
	}
	// Stream in arrival order: the online model reveals jobs by start time.
	in = in.SortedByStart()

	url := *addr + "/v1/stream"
	if resume {
		url += "?resume=" + *sessionID + "&seq=" + strconv.Itoa(*resumeAt)
	}

	// Feed the daemon over a pipe so arrivals and assignments genuinely
	// interleave on one connection (chunked request, streamed response).
	// On a resume the sender waits for the open event: the daemon
	// reports how many arrivals its journal already holds, and sending
	// restarts from exactly there.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if *traceOn {
		req.Header.Set(trace.TraceparentHeader, newTraceparent())
	}
	startCh := make(chan int, 1)
	if !resume {
		startCh <- 0
	}
	go func() {
		start := <-startCh
		enc := json.NewEncoder(pw)
		if !resume {
			if err := enc.Encode(server.StreamOpen{G: in.G, Strategy: *strategy, Budget: *budget, Session: *sessionID}); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		limit := len(in.Jobs)
		if *killAfter >= 0 && *killAfter < limit {
			limit = *killAfter
		}
		if start > limit {
			start = limit
		}
		for _, j := range in.Jobs[start:limit] {
			if err := enc.Encode(server.StreamArrival{ID: j.ID, Start: j.Start(), End: j.End(), Weight: j.Weight}); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		if limit == len(in.Jobs) {
			pw.Close()
		}
		// Under -kill-after the pipe stays open: the "crash" is the
		// reader dropping the connection, not a clean end of stream
		// (which would close the session for good).
	}()

	client := &http.Client{Timeout: 5 * time.Minute}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("stream: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}

	var closeEv *server.StreamEvent
	session := *sessionID
	got := 0
	if resume {
		got = *resumeAt // events confirmed before the interruption
	}
	dec := json.NewDecoder(resp.Body)
	for closeEv == nil {
		var ev server.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				break
			}
			return fmt.Errorf("stream: decoding event: %v", err)
		}
		switch ev.Type {
		case server.StreamEventOpen:
			session = ev.Session
			if resume {
				fmt.Fprintf(out, "stream: resumed session %s at %d journaled arrivals (replaying from seq %d)\n",
					ev.Session, ev.Arrivals, *resumeAt)
				startCh <- ev.Arrivals
			}
		case server.StreamEventError:
			return fmt.Errorf("stream: daemon error after %d events: %s", got, ev.Error)
		case server.StreamEventClose:
			e := ev
			closeEv = &e
		default:
			got++
			if *events {
				fmt.Fprintf(out, "event %d: job %d %s machine=%d opened=%v marginal=%d cost=%d LB=%d ratio=%.4f open=%d replay=%v\n",
					ev.Seq, ev.JobID, ev.Type, ev.Machine, ev.Opened, ev.Marginal, ev.Cost, ev.LowerBound, ev.Ratio, ev.Open, ev.Replay)
			}
			if *killAfter >= 0 && got >= *killAfter {
				// The simulated crash: drop the connection with the
				// session mid-stream. Every confirmed event is journaled
				// (the daemon appends before it emits), so a later
				// -resume run continues from exactly here.
				fmt.Fprintf(out, "stream: killed connection after %d confirmed events (session %s); resume with -session %s -resume %d\n",
					got, session, session, got)
				return nil
			}
		}
	}
	if closeEv == nil {
		return fmt.Errorf("stream: connection ended after %d events without a close report", got)
	}
	if got != len(in.Jobs) {
		return fmt.Errorf("stream: %d arrivals sent but %d events received", len(in.Jobs), got)
	}
	fmt.Fprintf(out, "stream: %d arrivals (workload %s, n=%d g=%d seed=%d) via %s [session %s]\n",
		closeEv.Arrivals, inst.family, inst.cfg.N, inst.cfg.G, inst.seed, *addr, closeEv.Session)
	fmt.Fprintf(out, "strategy=%s admitted=%d rejected=%d cost=%d machines=%d peak=%d LB=%d ratio=%.4f chain=%s\n",
		closeEv.Strategy, closeEv.Admitted, closeEv.Rejected, closeEv.Cost,
		closeEv.MachinesOpened, closeEv.PeakOpen, closeEv.LowerBound, closeEv.Ratio, closeEv.Chain)
	if *traceOn && closeEv.Trace != nil {
		fmt.Fprintf(out, "trace: session %.3fms stages: %s\n",
			float64(closeEv.Trace.DurationNS)/1e6, phaseBreakdown(closeEv.Trace))
	}
	// The echoed trace is serving telemetry riding the close event, not
	// part of the journaled close report — drop it before the byte-level
	// comparison with the offline replay.
	closeEv.Trace = nil

	if !*verify {
		return nil
	}
	want, err := offlineClose(in, *closeEv, *budget)
	if err != nil {
		return fmt.Errorf("stream: offline replay: %v", err)
	}
	gotLine, err := json.Marshal(closeEv)
	if err != nil {
		return err
	}
	wantLine, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(gotLine, wantLine) {
		return fmt.Errorf("stream: close report diverges from offline replay\n streamed: %s\n offline:  %s", gotLine, wantLine)
	}
	fmt.Fprintf(out, "verify: streamed close report byte-equal to offline replay (chain included)\n")
	if err := verifyJournal(client, *addr, *closeEv); err != nil {
		return err
	}
	fmt.Fprintf(out, "verify: fetched journal replays and certifies chain %s\n", closeEv.Chain)
	return nil
}

// offlineClose rebuilds the close event the stream must have produced —
// summary AND certificate chain — by journaling the same arrivals
// through the offline harness (journal.Certify replays and verifies the
// result internally). The strategy comes from the close event, which
// carries the canonical name the daemon resolved.
func offlineClose(in job.Instance, closeEv server.StreamEvent, budget int64) (server.StreamEvent, error) {
	arrivals := make([]journal.Arrival, len(in.Jobs))
	for i, j := range in.Jobs {
		arrivals[i] = journal.ArrivalOf(j)
	}
	p := journal.OpenParams{G: in.G, Strategy: closeEv.Strategy, Budget: budget}
	_, cert, err := journal.Certify(closeEv.Session, p, arrivals)
	if err != nil {
		return server.StreamEvent{}, err
	}
	return server.WireStreamClose(cert.Summary, closeEv.Session, cert.Chain), nil
}

// verifyJournal fetches the session's journal from the daemon and
// verifies the hash chain and replay equivalence locally, independent of
// the close report.
func verifyJournal(client *http.Client, addr string, closeEv server.StreamEvent) error {
	resp, err := client.Get(addr + "/v1/stream/journal?session=" + closeEv.Session)
	if err != nil {
		return fmt.Errorf("stream: fetching journal: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("stream: fetching journal: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	recs, err := journal.DecodeRecords(resp.Body)
	if err != nil {
		return fmt.Errorf("stream: decoding journal: %v", err)
	}
	cert, err := journal.Verify(recs)
	if err != nil {
		return fmt.Errorf("stream: journal verification failed: %v", err)
	}
	if cert.Chain != closeEv.Chain {
		return fmt.Errorf("stream: journal chain %s does not match the close report's %s", cert.Chain, closeEv.Chain)
	}
	return nil
}
