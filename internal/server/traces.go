package server

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/safemath"
	"repro/internal/trace"
)

// TraceEntry is one served request in the /debug/traces ring: identity,
// the coarse fields the endpoint filters on, and the full span tree.
type TraceEntry struct {
	// Seq is the ring's monotone admission number; newer entries have
	// larger Seq, and eviction drops the smallest live one.
	Seq        uint64      `json:"seq"`
	TS         string      `json:"ts"`
	Endpoint   string      `json:"endpoint"`
	Algorithm  string      `json:"algorithm,omitempty"`
	TraceID    string      `json:"trace_id"`
	DurationMS float64     `json:"duration_ms"`
	Trace      *trace.Node `json:"trace"`
}

// TracesResponse is the JSON body of GET /debug/traces.
type TracesResponse struct {
	Traces []*TraceEntry `json:"traces"`
}

// traceRing keeps the last N root spans the daemon served. Writers
// claim a monotone sequence number and publish into seq mod N; readers
// load each slot with one atomic pointer load — no lock on either side,
// so a slow /debug/traces scrape never stalls the serving path.
type traceRing struct {
	slots []atomic.Pointer[TraceEntry]
	seq   atomic.Uint64
}

func newTraceRing(n int) *traceRing {
	return &traceRing{slots: make([]atomic.Pointer[TraceEntry], n)}
}

// add publishes e, evicting the oldest entry once the ring is full. The
// entry must not be mutated after add.
func (r *traceRing) add(e *TraceEntry) {
	seq := r.seq.Add(1)
	e.Seq = seq
	r.slots[int((seq-1)%uint64(len(r.slots)))].Store(e)
}

// snapshot returns the live entries newest-first. Concurrent adds may
// land or not — each slot read is independently atomic, so every
// returned entry is complete.
func (r *traceRing) snapshot() []*TraceEntry {
	out := make([]*TraceEntry, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// startTrace opens the root "request" span for one served request.
// Serving is always-on sampling: every request is traced into the ring
// and the phase histograms whether or not the client asked. A valid
// incoming W3C traceparent header joins the client's trace (its ids
// become the root's trace id and remote parent) and opts the client
// into seeing the span tree in the response body — that is the echo
// return. The root span's End is the caller's job: it outlives this
// function on purpose.
func (s *Server) startTrace(r *http.Request, endpoint string) (context.Context, *trace.Span, bool) {
	ctx := r.Context()
	echo := false
	if tp := r.Header.Get(trace.TraceparentHeader); tp != "" {
		if tid, pid, err := trace.ParseTraceparent(tp); err == nil {
			ctx = trace.EnableRemote(ctx, tid, pid)
			echo = true
		}
	}
	if !echo {
		ctx = trace.Enable(ctx)
	}
	//lint:ignore busylint/spanend the root request span outlives this helper; every handler defers its End
	ctx, root := trace.Start(ctx, "request")
	root.SetAttr("endpoint", endpoint)
	return ctx, root, echo
}

// finishTrace ends the root span, snapshots the tree, records it in
// the ring and emits the slow-solve log line when the request crossed
// the threshold. The returned node is what handlers echo to clients
// that sent a traceparent. Extra nodes (the stream's synthesized stage
// aggregates) are grafted onto the root before it is published, so the
// ring entry is never mutated after readers can see it.
func (s *Server) finishTrace(root *trace.Span, endpoint, algorithm string, extra ...*trace.Node) *trace.Node {
	root.SetAttr("algorithm", algorithm)
	root.End()
	node := root.Snapshot()
	if node == nil {
		return nil
	}
	node.Children = append(node.Children, extra...)
	s.traces.add(&TraceEntry{
		TS:         time.Now().UTC().Format(time.RFC3339Nano),
		Endpoint:   endpoint,
		Algorithm:  algorithm,
		TraceID:    node.TraceID,
		DurationMS: float64(node.DurationNS) / 1e6,
		Trace:      node,
	})
	if s.cfg.SlowSolve > 0 && node.Duration() >= s.cfg.SlowSolve {
		s.reqlog.log(logEntry{Kind: "slow_solve", Outcome: endpoint, Algorithm: algorithm,
			DurationNS: node.DurationNS, PhaseNS: PhaseDurations(node)})
	}
	return node
}

// structuralSpans are the span names that group phases rather than
// measure one: they are excluded from the per-phase histograms and the
// slow-solve phase breakdown (their time is their children's).
var structuralSpans = map[string]bool{"request": true, "solve": true, "batch": true}

// PhaseDurations flattens a span tree into phase-name → total
// nanoseconds, summing repeated phases (e.g. per-component placements).
func PhaseDurations(node *trace.Node) map[string]int64 {
	phases := map[string]int64{}
	node.Walk(func(n *trace.Node) {
		if !structuralSpans[n.Name] {
			phases[n.Name] = safemath.SatAdd(phases[n.Name], n.DurationNS)
		}
	})
	return phases
}

// stageNodes synthesizes the close-report trace children of a streamed
// session: one aggregate node per serving stage (streamStages order),
// its total over the session's confirmed arrivals. They are aggregates
// of overlapping per-arrival intervals, not nested sub-spans, so they
// are marked as such and exempt from the children-sum-≤-root invariant.
// The "stage." prefix keeps them clear of the solver's own phase names.
func stageNodes(arrivals int, totals [len(streamStages)]int64) []*trace.Node {
	if arrivals == 0 {
		return nil
	}
	nodes := make([]*trace.Node, len(streamStages))
	for i, stage := range streamStages {
		nodes[i] = &trace.Node{Name: "stage." + stage, DurationNS: totals[i], Attrs: map[string]string{
			"aggregate": "true", "arrivals": strconv.Itoa(arrivals),
		}}
	}
	return nodes
}

// handleTraces serves GET /debug/traces: the ring's root spans newest
// first as JSON, filterable by ?min_ms= (duration floor), ?algorithm=
// (exact label match) and ?limit= (result cap).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsTraces.Add(1)
	if r.Method != http.MethodGet {
		s.refuse(w, http.StatusMethodNotAllowed, errors.New("server: GET only"))
		return
	}
	q := r.URL.Query()
	minMS := 0.0
	if v := q.Get("min_ms"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			s.refuse(w, http.StatusBadRequest, errors.New("server: min_ms must be a non-negative number"))
			return
		}
		minMS = f
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.refuse(w, http.StatusBadRequest, errors.New("server: limit must be a non-negative integer"))
			return
		}
		limit = n
	}
	algorithm := q.Get("algorithm")

	entries := s.traces.snapshot()
	filtered := make([]*TraceEntry, 0, len(entries))
	for _, e := range entries {
		if e.DurationMS < minMS {
			continue
		}
		if algorithm != "" && e.Algorithm != algorithm {
			continue
		}
		filtered = append(filtered, e)
		if limit > 0 && len(filtered) == limit {
			break
		}
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: filtered})
}
