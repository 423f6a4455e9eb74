package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	busytime "repro"
	"repro/internal/journal"
	"repro/internal/trace"
)

// Config wires the daemon's flags to the server. The zero value serves
// with auto dispatch, GOMAXPROCS batch workers and no admission limits.
type Config struct {
	// Algorithm optionally pins one registered algorithm for every
	// request that does not name its own batch algorithm; empty selects
	// auto dispatch.
	Algorithm string
	// Workers is the SolveBatch pool size (0 = GOMAXPROCS).
	Workers int
	// Budget is the default busy-time budget applied to max-throughput
	// requests that carry none.
	Budget int64
	// MaxInFlight caps concurrently admitted solve/batch requests;
	// excess requests are refused with 429. 0 = unlimited.
	MaxInFlight int
	// MaxJobs caps the per-instance job count; larger instances are
	// refused with 413. 0 = unlimited.
	MaxJobs int
	// MaxBatch caps requests per batch; larger batches are refused with
	// 413. 0 = unlimited.
	MaxBatch int
	// MaxBodyBytes caps request body size (default 8 MiB).
	MaxBodyBytes int64
	// DrainTimeout bounds the graceful shutdown drain (default 10 s).
	DrainTimeout time.Duration
	// Journal is the durable placement log behind /v1/stream sessions;
	// nil selects an in-memory store (sessions survive disconnects for
	// the life of the process, not across restarts).
	Journal journal.Store
	// ReoptCache sizes the default solver's instance-fingerprint cache
	// for warm-started reoptimization (0 = the default 512 entries,
	// negative = disabled). Per-batch pinned solvers never cache: their
	// results must stay a pure function of the pinned algorithm.
	ReoptCache int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: profiling endpoints are opt-in on a serving daemon).
	EnablePprof bool
	// RequestLog receives one JSON line per request and per stream
	// lifecycle event; nil disables request logging.
	RequestLog io.Writer
	// SlowSolve, when positive, emits a structured slow_solve log line
	// (with the per-phase breakdown from the span tree) for every
	// solve/batch/stream request at or above the threshold.
	SlowSolve time.Duration
	// TraceRing sizes the /debug/traces ring of recent root spans
	// (default 128).
	TraceRing int
}

// Server serves the Solver API over HTTP: POST /v1/solve,
// POST /v1/solve/batch, POST /v1/stream (NDJSON online sessions),
// GET /v1/algorithms, GET /healthz, GET /metrics. It is safe for
// concurrent use.
type Server struct {
	cfg      Config
	solver   *busytime.Solver
	pinnedMu sync.Mutex
	pinned   map[string]*busytime.Solver // per-batch-algorithm solver cache
	metrics  *metrics
	reqlog   *requestLog
	traces   *traceRing

	// activeStreams guards each journal session against concurrent
	// serving: one connection per session id at a time.
	streamMu      sync.Mutex
	activeStreams map[string]bool
}

// New validates the configuration (a pinned default algorithm must be
// registered) and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 128
	}
	if cfg.Journal == nil {
		cfg.Journal = journal.NewMemStore()
	}
	if cfg.Algorithm != "" {
		if _, err := busytime.LookupAlgorithm(cfg.Algorithm); err != nil {
			return nil, err
		}
	}
	defaultOpts := solverOptions(cfg, cfg.Algorithm)
	if cfg.ReoptCache >= 0 {
		capacity := cfg.ReoptCache
		if capacity == 0 {
			capacity = 512
		}
		defaultOpts = append(defaultOpts, busytime.WithReoptimization(capacity))
	}
	s := &Server{
		cfg:           cfg,
		solver:        busytime.NewSolver(defaultOpts...),
		pinned:        map[string]*busytime.Solver{},
		metrics:       newMetrics(),
		reqlog:        newRequestLog(cfg.RequestLog),
		traces:        newTraceRing(cfg.TraceRing),
		activeStreams: map[string]bool{},
	}
	return s, nil
}

func solverOptions(cfg Config, algorithm string) []busytime.SolverOption {
	opts := []busytime.SolverOption{busytime.WithParallelism(cfg.Workers)}
	if algorithm != "" {
		opts = append(opts, busytime.WithAlgorithm(algorithm))
	}
	if cfg.Budget > 0 {
		opts = append(opts, busytime.WithBudget(cfg.Budget))
	}
	return opts
}

// solverFor resolves the batch-level algorithm override. Solvers are
// immutable, so one per algorithm is built lazily and cached.
func (s *Server) solverFor(algorithm string) (*busytime.Solver, error) {
	if algorithm == "" || algorithm == s.cfg.Algorithm {
		return s.solver, nil
	}
	info, err := busytime.LookupAlgorithm(algorithm)
	if err != nil {
		return nil, err
	}
	s.pinnedMu.Lock()
	defer s.pinnedMu.Unlock()
	if solver, ok := s.pinned[info.Name]; ok {
		return solver, nil
	}
	solver := busytime.NewSolver(solverOptions(s.cfg, info.Name)...)
	s.pinned[info.Name] = solver
	return solver, nil
}

// Handler returns the route mux — also the entry point for httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/solve/batch", s.handleBatch)
	mux.HandleFunc("/v1/stream", s.handleStream)
	mux.HandleFunc("/v1/stream/journal", s.handleStreamJournal)
	mux.HandleFunc("/v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	if s.cfg.EnablePprof {
		// Explicit routes rather than the package's DefaultServeMux
		// side-effect registration: the daemon's mux must expose pprof
		// only when asked to.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Run listens on addr and serves until ctx is canceled, then drains
// gracefully: in-flight requests get up to DrainTimeout to finish.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is Run on a caller-provided listener (tests bind 127.0.0.1:0
// and read the bound address back from the listener).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting, give in-flight solves up to
		// DrainTimeout to finish, then force-close the stragglers
		// (closing their connections cancels their request contexts,
		// which the solve paths honor).
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			return srv.Close()
		}
		return nil
	case err := <-errc:
		return err
	}
}

// admit applies the in-flight cap. It returns a release func on
// success and writes the 429 itself on refusal.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	n := s.metrics.inFlight.Add(1)
	if s.cfg.MaxInFlight > 0 && n > int64(s.cfg.MaxInFlight) {
		s.metrics.inFlight.Add(-1)
		s.metrics.rejectedOverload.Add(1)
		httpError(w, http.StatusTooManyRequests,
			fmt.Errorf("server: %d requests in flight exceeds limit %d", n, s.cfg.MaxInFlight))
		return nil, false
	}
	return func() { s.metrics.inFlight.Add(-1) }, true
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsSolve.Add(1)
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("server: POST only"))
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()

	var req Request
	if !s.decode(w, r, &req) {
		return
	}
	if s.tooLarge(w, req.Jobs()) {
		return
	}
	solverReq, err := req.ToSolverRequest()
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, err)
		return
	}

	// Serving is always-on sampling: the request is traced into the
	// ring and the phase histograms regardless; a client that sent a
	// valid traceparent additionally gets the span tree echoed on the
	// wire result.
	ctx, root, echo := s.startTrace(r, "solve")
	defer root.End()
	start := time.Now()
	res, err := s.solver.Solve(ctx, solverReq)
	if err != nil {
		s.metrics.observeSolve("error", time.Since(start))
		s.metrics.solveErrors.Add(1)
		root.SetAttr("error", err.Error())
		s.finishTrace(root, "solve", "error")
		s.reqlog.log(logEntry{Kind: "solve", Outcome: "error",
			DurationNS: time.Since(start).Nanoseconds(), Error: err.Error()})
		writeJSON(w, http.StatusUnprocessableEntity, Result{Kind: solverReq.Kind.String(), Error: err.Error()})
		return
	}
	s.metrics.observeSolve(res.Algorithm, time.Since(start))
	// Certification happens at the serving layer (WireResult re-derives
	// the certificate), so its span lives under the request root, beside
	// the solver's own "solve" subtree.
	_, csp := trace.Start(ctx, "certify")
	wres := WireResult(res)
	csp.End()
	node := s.finishTrace(root, "solve", res.Algorithm)
	s.metrics.observePhases(res.Algorithm, node)
	s.reqlog.log(logEntry{Kind: "solve", Outcome: "ok", Algorithm: res.Algorithm,
		DurationNS: time.Since(start).Nanoseconds()})
	if res.CacheOutcome != "" {
		s.metrics.observeReopt(res.CacheOutcome, res.Transition)
		w.Header().Set("X-Busytime-Cache", res.CacheOutcome)
	}
	if echo {
		wres.Trace = node
	}
	w.Header().Set("Traceparent", trace.Traceparent(root.TraceID(), root.SpanID()))
	writeJSON(w, http.StatusOK, wres)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsBatch.Add(1)
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("server: POST only"))
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()

	var batch batchEnvelope
	if !s.decode(w, r, &batch) {
		return
	}
	if s.cfg.MaxBatch > 0 && len(batch.Requests) > s.cfg.MaxBatch {
		s.metrics.rejectedTooLarge.Add(1)
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: batch of %d requests exceeds limit %d", len(batch.Requests), s.cfg.MaxBatch))
		return
	}
	solver, err := s.solverFor(batch.Algorithm)
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, err)
		return
	}

	// Decode every wire request per item. A malformed or oversized item
	// fails alone — its slot is pre-filled and skipped by the solver —
	// so one bad request never poisons the batch.
	kinds := make([]string, len(batch.Requests))
	reqs := make([]busytime.Request, len(batch.Requests))
	pre := make([]*Result, len(batch.Requests))
	for i, raw := range batch.Requests {
		var wireReq Request
		if err := json.Unmarshal(raw, &wireReq); err != nil {
			s.metrics.badRequests.Add(1)
			pre[i] = &Result{Error: fmt.Sprintf("server: decoding request: %v", err)}
			continue
		}
		kinds[i] = wireReq.Kind
		if s.cfg.MaxJobs > 0 && wireReq.Jobs() > s.cfg.MaxJobs {
			s.metrics.rejectedTooLarge.Add(1)
			pre[i] = &Result{Error: fmt.Sprintf("server: instance of %d jobs exceeds limit %d", wireReq.Jobs(), s.cfg.MaxJobs)}
			continue
		}
		sreq, err := wireReq.ToSolverRequest()
		if err != nil {
			s.metrics.badRequests.Add(1)
			pre[i] = &Result{Error: err.Error()}
			continue
		}
		reqs[i] = sreq
	}

	// Solve only the live slots, then re-interleave order-stably.
	live := make([]busytime.Request, 0, len(reqs))
	liveIdx := make([]int, 0, len(reqs))
	for i := range reqs {
		if pre[i] == nil {
			live = append(live, reqs[i])
			liveIdx = append(liveIdx, i)
		}
	}
	// The batch latency family and the trace ring label the batch by its
	// pinned algorithm's canonical name; an unpinned batch is "auto".
	batchAlg := "auto"
	if batch.Algorithm != "" {
		if info, err := busytime.LookupAlgorithm(batch.Algorithm); err == nil {
			batchAlg = info.Name
		}
	}
	ctx, root, echo := s.startTrace(r, "batch")
	defer root.End()
	start := time.Now()
	results, batchErr := solver.SolveBatch(ctx, live)
	s.metrics.observeBatch(batchAlg, time.Since(start), len(batch.Requests))

	// Pre-failed items were already counted by their rejection reason
	// (too_large / bad_request); only real solve failures count below.
	resp := BatchResponse{Results: make([]Result, len(batch.Requests))}
	for i := range resp.Results {
		if pre[i] != nil {
			resp.Results[i] = *pre[i]
			resp.Results[i].Kind = kinds[i]
		}
	}
	// One certify span covers the whole re-derivation loop: per-item
	// certification is the dominant serving-side cost of a batch.
	_, csp := trace.Start(ctx, "certify")
	for k, idx := range liveIdx {
		resp.Results[idx] = WireResult(results[k])
		if results[k].Err != nil {
			s.metrics.solveErrors.Add(1)
			continue
		}
		if results[k].CacheOutcome != "" {
			s.metrics.observeReopt(results[k].CacheOutcome, results[k].Transition)
		}
		s.metrics.observePhases(results[k].Algorithm, results[k].Trace)
		if echo {
			resp.Results[idx].Trace = results[k].Trace
		}
	}
	csp.End()
	s.finishTrace(root, "batch", batchAlg)
	w.Header().Set("Traceparent", trace.Traceparent(root.TraceID(), root.SpanID()))
	// The batch-level error is ctx's: the client went away or the
	// daemon is draining past its timeout. Per-request errors are
	// already inline; report the batch as a whole anyway.
	if batchErr != nil {
		s.reqlog.log(logEntry{Kind: "batch", Outcome: "error", Size: len(batch.Requests), Algorithm: batchAlg,
			DurationNS: time.Since(start).Nanoseconds(), Error: batchErr.Error()})
		writeJSON(w, http.StatusUnprocessableEntity, resp)
		return
	}
	s.reqlog.log(logEntry{Kind: "batch", Outcome: "ok", Size: len(batch.Requests), Algorithm: batchAlg,
		DurationNS: time.Since(start).Nanoseconds()})
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsAlgorithms.Add(1)
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("server: GET only"))
		return
	}
	writeJSON(w, http.StatusOK, WireAlgorithms())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsHealth.Add(1)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.writeTo(w)
}

// decode reads a JSON body under the size cap, reporting 400 (malformed)
// or 413 (over the body cap) itself.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into interface{}) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.metrics.rejectedTooLarge.Add(1)
			httpError(w, http.StatusRequestEntityTooLarge, err)
			return false
		}
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, fmt.Errorf("server: decoding request: %v", err))
		return false
	}
	return true
}

// tooLarge applies the per-instance size cap, writing the 413 itself.
func (s *Server) tooLarge(w http.ResponseWriter, jobs int) bool {
	if s.cfg.MaxJobs > 0 && jobs > s.cfg.MaxJobs {
		s.metrics.rejectedTooLarge.Add(1)
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: instance of %d jobs exceeds limit %d", jobs, s.cfg.MaxJobs))
		return true
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
