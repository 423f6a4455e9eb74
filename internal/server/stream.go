package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/safemath"
	"repro/internal/trace"
)

// handleStream serves POST /v1/stream: a full-duplex NDJSON session that
// feeds arrivals, one flush at a time, into a per-session online
// strategy, journals every placement durably before acknowledging it,
// and emits one placement event per arrival with live telemetry plus
// per-stage serving timings, then a final close report carrying the
// journal chain's certificate hash.
//
// Protocol (one JSON value per line, both directions):
//
//	→ {"g":4,"strategy":"online-bestfit","session":"run-1"}  header
//	→ {"id":0,"start":3,"end":9,"weight":2}                  arrivals…
//	← {"type":"open","session":"run-1","strategy":...}
//	← {"type":"assign","job_id":0,"machine":0,...,"queue_ns":...}
//	← {"type":"reject","job_id":7,...}       (admission control)
//	← {"type":"close","session":"run-1","chain":"ab12…",...} on EOF
//
// A disconnected session is not lost: its journal survives (in the file
// store, across a daemon crash), and
//
//	POST /v1/stream?resume=<session>&seq=<n>
//
// rebuilds the session by journal replay, re-emits the journal tail
// from online seq n with "replay":true, and continues accepting
// arrivals — no header line on a resume; the open record already fixed
// the parameters. An interrupted-and-resumed session produces a close
// report byte-equal to an uninterrupted one, chain hash included.
//
// Header problems are plain HTTP errors (400/404/405/409/429); once the
// first event is written the status is committed, so later failures
// surface as a terminal {"type":"error"} event, which leaves the
// journal unclosed — and the session resumable from its durable prefix.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsStream.Add(1)
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("server: POST only"))
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()

	// The stream shares the daemon's byte-level admission bound: without
	// it this would be the one endpoint where a single huge JSON value
	// (or an unbounded session) could grow memory past every other cap.
	// MaxBodyBytes therefore also bounds a session's total request bytes;
	// at the defaults (8 MiB, ~60 B per arrival line) it sits above the
	// 100k-job -max-jobs cap.
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)

	// Both setup paths claim the session id before returning success, so
	// exactly one connection serves a session at a time (sessions and
	// journal writers are single-goroutine by contract).
	var (
		sess    *online.Session
		jw      *journal.Writer
		alg     string
		tail    []journal.Record // events to re-emit on resume
		resumed bool
	)
	if resumeID := r.URL.Query().Get("resume"); resumeID != "" {
		state, from, status, err := s.resumeStreamSession(resumeID, r.URL.Query().Get("seq"))
		if err != nil {
			if status == http.StatusBadRequest {
				s.metrics.badRequests.Add(1)
			}
			httpError(w, status, err)
			return
		}
		sess, alg, resumed = state.Session, state.Params.Strategy, true
		jw, err = journal.ResumeWriter(s.cfg.Journal, state)
		if err != nil {
			s.releaseSession(resumeID)
			httpError(w, http.StatusConflict, err)
			return
		}
		for _, rec := range state.Records {
			if rec.Kind == journal.KindEvent && rec.Event.Seq >= from {
				tail = append(tail, rec)
			}
		}
		s.metrics.streamsResumed.Add(1)
	} else {
		var open StreamOpen
		if err := dec.Decode(&open); err != nil {
			s.metrics.badRequests.Add(1)
			httpError(w, http.StatusBadRequest, fmt.Errorf("server: decoding stream header: %v", err))
			return
		}
		var status int
		var err error
		sess, jw, alg, status, err = s.openStreamSession(open)
		if err != nil {
			if status == http.StatusBadRequest {
				s.metrics.badRequests.Add(1)
			}
			httpError(w, status, err)
			return
		}
	}
	session := jw.Session()
	defer s.releaseSession(session)

	s.metrics.streamsOpen.Add(1)
	defer s.metrics.streamsOpen.Add(-1)
	sessionStart := time.Now()
	outcome := "ok"
	if resumed {
		outcome = "resumed"
	}
	s.reqlog.log(logEntry{Kind: "stream_open", Session: session, Seq: sess.Arrivals(), Outcome: outcome})

	// The session root span opens once the setup paths have committed;
	// earlier failures are plain HTTP errors and never reach the ring.
	// The trace context is not threaded into the session loop: it sums
	// the per-arrival stage timings, and the sums are grafted onto the
	// root as synthesized nodes at close.
	_, root, echo := s.startTrace(r, "stream")
	defer root.End()
	root.SetAttr("session", session)
	root.SetAttr("strategy", alg)

	// HTTP/1.x is half-duplex by default: the server closes the request
	// body once the handler starts writing. A stream session reads
	// arrivals and writes events on the same connection, so opt into
	// full duplex (a no-op error on transports that already are, e.g. h2).
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Traceparent", trace.Traceparent(root.TraceID(), root.SpanID()))
	// A session can end with arrivals still unread; the connection ends
	// with it, or net/http would parse them as the next request.
	w.Header().Set("Connection", "close")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	emit := func(ev StreamEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false // client gone; nothing left to tell it
		}
		_ = rc.Flush()
		return true
	}
	fail := func(err error) {
		s.metrics.streamErrors.Add(1)
		s.reqlog.log(logEntry{Kind: "stream_error", Session: session, Seq: sess.Arrivals(),
			Outcome: "error", Error: err.Error()})
		emit(StreamEvent{Type: StreamEventError, Session: session, Error: err.Error()})
	}

	if !emit(StreamEvent{Type: StreamEventOpen, Session: session, Strategy: alg,
		Resumed: resumed, Arrivals: sess.Arrivals()}) {
		return
	}
	for _, rec := range tail {
		ev := WireStreamEvent(rec.Event.OnlineEvent())
		ev.Replay = true
		if !emit(ev) {
			return
		}
	}

	// The reader goroutine exists only because a blocked Decode is the
	// one way to learn that an arrival is ready. A buffer of one flush
	// lets it decode the next flush while the handler commits this one.
	items := make(chan streamItem, maxFlush)
	done := make(chan struct{})
	go s.readArrivals(r.Context(), dec, sess.Arrivals(), items, done)
	// On every exit the handler stops the reader and drains items until
	// it has returned: net/http must not touch the body while the reader
	// is still inside it. A client still sending completes the Read in
	// flight at once; an idle one is cut off by the read deadline. The
	// deadline is not immediate because a Read it interrupts poisons the
	// body, and net/http then closes without draining what the client is
	// still sending: the client would get a reset instead of its last
	// events.
	defer func() {
		close(done)
		_ = rc.SetReadDeadline(time.Now().Add(readerGrace))
		for range items {
		}
		_ = rc.SetReadDeadline(time.Time{})
	}()

	// This goroutine owns the session, the journal writer and the
	// response. A flush takes the first queued arrival and whatever else
	// is already queued, places and stages each, commits them in one
	// journal append, and only then encodes their events and flushes the
	// response once: no event leaves before the Commit covering it.
	batch := make([]streamItem, 0, maxFlush)
	out := make([]StreamEvent, 0, maxFlush)
	confirmed := 0                      // arrivals acknowledged so far
	var totals [len(streamStages)]int64 // and their summed stage timings
	for first := range items {
		batch = append(batch[:0], first)
	fill:
		for len(batch) < maxFlush {
			select {
			case it, ok := <-items:
				if !ok {
					break fill
				}
				batch = append(batch, it)
			default:
				break fill
			}
		}

		// An error stops the flush early; the staged prefix is still
		// committed and acknowledged before the error is reported.
		flushStart := time.Now()
		out = out[:0]
		var stop error
		journalFault := false
		for _, it := range batch {
			if it.err != nil {
				stop = it.err
				break
			}
			solveStart := time.Now()
			ev, err := sess.Offer(it.j)
			if err != nil {
				stop = err
				break
			}
			wire := WireStreamEvent(ev)
			wire.SolveNS = time.Since(solveStart).Nanoseconds()
			if _, err := jw.StageEvent(journal.ArrivalOf(it.j), ev); err != nil {
				stop, journalFault = err, true
				break
			}
			out = append(out, wire)
		}
		if err := jw.Commit(); err != nil {
			// Nothing from this flush is durable, so none of it is
			// acknowledged.
			out, stop, journalFault = out[:0], err, true
		}
		flushNS := time.Since(flushStart).Nanoseconds()
		if len(out) > 0 {
			s.metrics.observeFlushSize(len(out))
		}
		for i := range out {
			ev := &out[i]
			ev.QueueNS, ev.FlushNS = flushStart.Sub(batch[i].enqueued).Nanoseconds(), flushNS
			stage := [len(streamStages)]int64{ev.QueueNS, ev.FlushNS, ev.SolveNS}
			for k, ns := range stage {
				totals[k] = safemath.SatAdd(totals[k], ns)
			}
			s.metrics.observeStreamStages(alg, stage)
			if ev.Type == StreamEventReject {
				s.metrics.streamRejected.Add(1)
			} else {
				s.metrics.streamAssigned.Add(1)
			}
			s.reqlog.log(logEntry{Kind: "stream_event", Session: session, Seq: ev.Seq,
				Outcome: ev.Type, DurationNS: safemath.SatAdd(ev.QueueNS, ev.FlushNS)})
			if err := enc.Encode(ev); err != nil {
				return // client gone; the journal stays unclosed and resumable
			}
		}
		confirmed += len(out)
		_ = rc.Flush()

		var tooBig *http.MaxBytesError
		switch {
		case stop == nil:
			continue
		case errors.Is(stop, context.Canceled):
			// A client that went away mid-stream is ordinary churn, not a
			// bad request or a stream error; there is no one left to tell.
		case errors.As(stop, &tooBig):
			s.metrics.rejectedTooLarge.Add(1)
			fail(fmt.Errorf("server: stream exceeded the request body limit of %d bytes", s.cfg.MaxBodyBytes))
		case journalFault:
			// The server's fault, not the client's: no bad request.
			fail(fmt.Errorf("server: journaling arrivals: %v", stop))
		default:
			s.metrics.badRequests.Add(1)
			fail(stop)
		}
		return // journal left unclosed: the session is resumable
	}

	sum := sess.Summary()
	chain, err := jw.Close(sum)
	if err != nil {
		fail(fmt.Errorf("server: closing journal: %v", err))
		return
	}
	s.reqlog.log(logEntry{Kind: "stream_close", Session: session, Seq: sum.Arrivals,
		Outcome: "ok", Algorithm: alg, DurationNS: time.Since(sessionStart).Nanoseconds()})
	node := s.finishTrace(root, "stream", alg, stageNodes(confirmed, totals)...)
	ev := WireStreamClose(sum, session, chain)
	if echo {
		// The trace rides the close event only for clients that sent a
		// traceparent: the journaled close report stays byte-identical to
		// an offline replay, trace or no trace.
		ev.Trace = node
	}
	emit(ev)
}

const (
	// maxFlush caps the arrivals one stream flush places and commits.
	maxFlush = 128
	// readerGrace bounds how long a stream handler waits on exit for its
	// reader's Read in flight.
	readerGrace = 100 * time.Millisecond
)

// streamItem is what a stream session's reader hands the handler: one
// validated arrival stamped with its enqueue time, or the error that
// ends the stream.
type streamItem struct {
	j        job.Job
	enqueued time.Time
	err      error
}

// readArrivals decodes and validates a stream session's arrivals onto
// items until the body ends or fails or done is closed, and closes items
// on return. An error is the last item sent; it is ctx's error when the
// client went away. arrivals is the count already journaled, which
// counts toward the MaxJobs cap on resume.
func (s *Server) readArrivals(ctx context.Context, dec *json.Decoder, arrivals int, items chan<- streamItem, done <-chan struct{}) {
	defer close(items)
	for {
		var arr StreamArrival
		err := dec.Decode(&arr)
		if errors.Is(err, io.EOF) {
			return
		}
		var j job.Job
		if err != nil {
			if ctx.Err() != nil {
				err = ctx.Err()
			} else {
				err = fmt.Errorf("server: decoding arrival %d: %w", arrivals, err)
			}
		} else if arrivals++; s.cfg.MaxJobs > 0 && arrivals > s.cfg.MaxJobs {
			err = fmt.Errorf("server: stream of %d arrivals exceeds limit %d", arrivals, s.cfg.MaxJobs)
		} else {
			j, err = arr.ToJob()
		}
		select {
		case items <- streamItem{j: j, enqueued: time.Now(), err: err}:
		case <-done:
			return
		}
		if err != nil {
			return
		}
	}
}

// openStreamSession validates the stream header and opens a fresh
// journaled session: capacity, resolved strategy (strongest registered
// when unnamed), the budget handed to admission-control strategies, and
// the open record persisted before the first arrival is read. On
// success the session id is claimed; the returned status is the HTTP
// code to use on error.
func (s *Server) openStreamSession(open StreamOpen) (*online.Session, *journal.Writer, string, int, error) {
	if open.G < 1 {
		return nil, nil, "", http.StatusBadRequest, fmt.Errorf("server: stream capacity g = %d, need g >= 1", open.G)
	}
	if open.Budget < 0 || open.Budget > maxWireCoord {
		return nil, nil, "", http.StatusBadRequest, fmt.Errorf("server: stream budget %d outside [0, 2^40]", open.Budget)
	}
	var alg registry.Algorithm
	var err error
	if open.Strategy == "" {
		alg, err = registry.For(registry.Online, igraph.General)
	} else {
		alg, err = registry.LookupKind(registry.Online, open.Strategy)
	}
	if err != nil {
		return nil, nil, "", http.StatusBadRequest, err
	}
	st := alg.NewStrategy()
	bs, budgeted := st.(online.BudgetSetter)
	switch {
	case open.Budget > 0 && !budgeted:
		return nil, nil, "", http.StatusBadRequest, fmt.Errorf("server: strategy %s does not support a budget (use %s)", alg.Name, "online-budget")
	case open.Budget == 0 && budgeted:
		// Without a budget the admission-control strategy silently
		// degenerates to plain BestFit; refuse, like the CLI does.
		return nil, nil, "", http.StatusBadRequest, fmt.Errorf("server: strategy %s needs a positive budget (it admits everything without one)", alg.Name)
	case budgeted:
		bs.SetBudget(open.Budget)
	}
	sess, err := online.NewSession(open.G, st)
	if err != nil {
		return nil, nil, "", http.StatusBadRequest, err
	}
	session := open.Session
	if session == "" {
		session = newSessionID()
	} else if !journal.ValidSessionID(session) {
		return nil, nil, "", http.StatusBadRequest, fmt.Errorf("server: invalid session id %q (want 1-64 chars of [A-Za-z0-9._-])", open.Session)
	}
	// Claim before touching the store: two racing opens on one id must
	// not both write an open record.
	if !s.claimSession(session) {
		return nil, nil, "", http.StatusConflict, fmt.Errorf("server: session %s is already being served", session)
	}
	// The journal records the canonical strategy name, never an alias:
	// the open record seeds the hash chain, and a certificate must not
	// depend on which spelling the client used.
	jw, err := journal.NewWriter(s.cfg.Journal, session, journal.OpenParams{G: open.G, Strategy: alg.Name, Budget: open.Budget})
	if err != nil {
		s.releaseSession(session)
		if errors.Is(err, journal.ErrSessionExists) {
			return nil, nil, "", http.StatusConflict, fmt.Errorf("server: session %s already has a journal; resume it with ?resume=%s", session, session)
		}
		return nil, nil, "", http.StatusInternalServerError, err
	}
	return sess, jw, alg.Name, 0, nil
}

// resumeStreamSession rebuilds a disconnected session from its journal,
// claiming the id on success. It returns the replayed state and the
// online seq the client wants the event tail re-emitted from.
func (s *Server) resumeStreamSession(session, seqStr string) (*journal.ReplayState, int, int, error) {
	if !journal.ValidSessionID(session) {
		return nil, 0, http.StatusBadRequest, fmt.Errorf("server: invalid session id %q", session)
	}
	from := 0
	if seqStr != "" {
		n, err := strconv.Atoi(seqStr)
		if err != nil || n < 0 {
			return nil, 0, http.StatusBadRequest, fmt.Errorf("server: invalid resume seq %q", seqStr)
		}
		from = n
	}
	if !s.claimSession(session) {
		return nil, 0, http.StatusConflict, fmt.Errorf("server: session %s is already being served", session)
	}
	state, status, err := func() (*journal.ReplayState, int, error) {
		recs, err := s.cfg.Journal.Read(session)
		if err != nil {
			if errors.Is(err, journal.ErrUnknownSession) {
				return nil, http.StatusNotFound, fmt.Errorf("server: no journal for session %s", session)
			}
			return nil, http.StatusInternalServerError, err
		}
		state, err := journal.Replay(recs)
		if err != nil {
			// The journal exists but does not replay: corruption or a
			// build mismatch. Surface it loudly; it certifies nothing.
			return nil, http.StatusInternalServerError, fmt.Errorf("server: journal for session %s does not replay: %v", session, err)
		}
		if state.Closed {
			return nil, http.StatusConflict, fmt.Errorf("server: session %s is closed; its journal is final", session)
		}
		if from > state.Arrivals {
			return nil, http.StatusBadRequest, fmt.Errorf("server: resume seq %d beyond the journal's %d arrivals", from, state.Arrivals)
		}
		return state, 0, nil
	}()
	if err != nil {
		s.releaseSession(session)
		return nil, 0, status, err
	}
	return state, from, 0, nil
}

// handleStreamJournal serves GET /v1/stream/journal?session=<id>: the
// session's raw journal as NDJSON records, so clients can verify the
// chained certificate independently (busysim stream -verify does).
func (s *Server) handleStreamJournal(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsJournal.Add(1)
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("server: GET only"))
		return
	}
	session := r.URL.Query().Get("session")
	if !journal.ValidSessionID(session) {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, fmt.Errorf("server: invalid session id %q", session))
		return
	}
	recs, err := s.cfg.Journal.Read(session)
	if err != nil {
		if errors.Is(err, journal.ErrUnknownSession) {
			httpError(w, http.StatusNotFound, fmt.Errorf("server: no journal for session %s", session))
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = journal.EncodeRecords(w, recs)
}

// claimSession marks a session as actively served, refusing a second
// concurrent stream on the same id (sessions and writers are
// single-goroutine; two connections interleaving offers would corrupt
// the chain).
func (s *Server) claimSession(id string) bool {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.activeStreams[id] {
		return false
	}
	s.activeStreams[id] = true
	return true
}

func (s *Server) releaseSession(id string) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	delete(s.activeStreams, id)
}

// newSessionID generates a random 128-bit session id. crypto/rand.Read
// is documented to never fail and to always fill the buffer.
func newSessionID() string {
	var b [16]byte
	_, _ = rand.Read(b[:])
	return "s-" + hex.EncodeToString(b[:])
}
