// Package server is the HTTP serving layer of the library: JSON wire
// types shared by the daemon, the CLIs and the tests, plus the handler
// set behind cmd/busyd. It sits directly on the public Solver API —
// every response carries the Result.Certificate() verdict, so serving
// inherits the conformance story: a client can trust a "certified"
// result without re-deriving the schedule statistics, and can re-check
// them locally from the returned machine assignment.
package server

import (
	"fmt"
	"time"

	busytime "repro"
	"repro/internal/job"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/trace"
)

// Request is the wire form of one solve call. Kind names the problem
// family with the registry's Kind strings ("min-busy", "max-throughput",
// "min-busy-2d", "online"); empty defaults to min-busy, and a non-nil
// rect instance implies min-busy-2d. Exactly one of Instance and Rect
// must be set. TimeoutMS sets busytime.Request.Timeout, a per-request
// deadline. The request fails alone when the deadline passes while it
// waits in its batch or between auto dispatch's fallback attempts, but
// an algorithm that takes no ctx does not see it: that solve runs to
// the end and returns its schedule.
type Request struct {
	Kind      string        `json:"kind,omitempty"`
	Instance  *job.Instance `json:"instance,omitempty"`
	Rect      *RectInstance `json:"rect,omitempty"`
	Budget    int64         `json:"budget,omitempty"`
	TimeoutMS int64         `json:"timeout_ms,omitempty"`
	// BaseID warm-starts the solve from a prior result (Result.ID) when
	// the server runs with a reoptimization cache; TransitionBudget caps
	// how many carried-over jobs the repair may reassign (0 = unbudgeted).
	BaseID           string `json:"base_id,omitempty"`
	TransitionBudget int    `json:"transition_budget,omitempty"`
}

// BatchRequest is the wire form of POST /v1/solve/batch. Algorithm
// optionally pins one registered algorithm (canonical name or alias)
// for the whole batch; empty selects auto dispatch per request.
type BatchRequest struct {
	Algorithm string    `json:"algorithm,omitempty"`
	Requests  []Request `json:"requests"`
}

// BatchResponse carries one Result per request, order-stable with the
// batch.
type BatchResponse struct {
	Results []Result `json:"results"`
}

// RectInstance is the wire form of a 2-D instance (job.RectInstance has
// no JSON codec of its own; the 1-D job.Instance codec is reused as-is).
type RectInstance struct {
	G    int       `json:"g"`
	Jobs []RectJob `json:"jobs"`
}

// RectJob is one rectangle [start1, end1) × [start2, end2).
type RectJob struct {
	ID     int   `json:"id"`
	Start1 int64 `json:"start1"`
	End1   int64 `json:"end1"`
	Start2 int64 `json:"start2"`
	End2   int64 `json:"end2"`
}

// Wire sanity caps. Coordinates and weights beyond these bounds cannot
// come from a legitimate client and would push the int64 cost arithmetic
// (sums of n lengths, weight × length products in admission control)
// toward overflow, so decoding rejects them with a structured 400 instead
// of risking silent wraparound deeper in the solve path.
const (
	maxWireCoord  = int64(1) << 40
	maxWireWeight = int64(1) << 40
)

// checkWireInterval rejects the malformed [start, end) shapes a codec
// must never forward: end < start (interval.New panics on it — a decoded
// request must fail, not crash the handler) and coordinates beyond the
// sanity cap.
func checkWireInterval(what string, id int, start, end int64) error {
	if end < start {
		return fmt.Errorf("server: %s %d has end %d < start %d", what, id, end, start)
	}
	if start < -maxWireCoord || start > maxWireCoord || end < -maxWireCoord || end > maxWireCoord {
		return fmt.Errorf("server: %s %d has coordinates [%d, %d) outside the sane range ±2^40", what, id, start, end)
	}
	return nil
}

// checkWireInstance applies the wire sanity caps to a decoded 1-D
// instance on top of the structural checks its own codec already ran.
func checkWireInstance(in *job.Instance) error {
	for _, j := range in.Jobs {
		if err := checkWireInterval("job", j.ID, j.Start(), j.End()); err != nil {
			return err
		}
		if j.Weight > maxWireWeight {
			return fmt.Errorf("server: job %d has weight %d above the sane cap 2^40", j.ID, j.Weight)
		}
		if j.Demand > maxWireWeight {
			return fmt.Errorf("server: job %d has demand %d above the sane cap 2^40", j.ID, j.Demand)
		}
	}
	return nil
}

// ToRectInstance decodes and validates the wire form. Both dimensions are
// checked here before any rect is constructed: job.NewRectJob panics on
// end < start, so a malformed wire rectangle must be rejected at the
// codec, not discovered as a handler crash.
func (r RectInstance) ToRectInstance() (job.RectInstance, error) {
	in := job.RectInstance{G: r.G, Jobs: make([]job.RectJob, len(r.Jobs))}
	for i, j := range r.Jobs {
		if err := checkWireInterval("rect job (dimension 1)", j.ID, j.Start1, j.End1); err != nil {
			return job.RectInstance{}, err
		}
		if err := checkWireInterval("rect job (dimension 2)", j.ID, j.Start2, j.End2); err != nil {
			return job.RectInstance{}, err
		}
		in.Jobs[i] = job.NewRectJob(j.ID, j.Start1, j.End1, j.Start2, j.End2)
	}
	if err := in.Validate(); err != nil {
		return job.RectInstance{}, err
	}
	return in, nil
}

// WireRect encodes a 2-D instance for transport.
func WireRect(in job.RectInstance) RectInstance {
	out := RectInstance{G: in.G, Jobs: make([]RectJob, len(in.Jobs))}
	for i, j := range in.Jobs {
		out.Jobs[i] = RectJob{
			ID:     j.ID,
			Start1: j.Rect.D1.Start, End1: j.Rect.D1.End,
			Start2: j.Rect.D2.Start, End2: j.Rect.D2.End,
		}
	}
	return out
}

// ParseKind resolves a wire kind string. Empty means min-busy; the
// caller promotes to min-busy-2d when a rect instance is present.
func ParseKind(s string) (busytime.ProblemKind, error) {
	switch s {
	case "", registry.MinBusy.String():
		return busytime.KindMinBusy, nil
	case registry.MaxThroughput.String():
		return busytime.KindMaxThroughput, nil
	case registry.MinBusy2D.String():
		return busytime.KindMinBusy2D, nil
	case registry.Online.String():
		return busytime.KindOnline, nil
	default:
		return 0, fmt.Errorf("server: unknown kind %q (want %s, %s, %s or %s)",
			s, registry.MinBusy, registry.MaxThroughput, registry.MinBusy2D, registry.Online)
	}
}

// ToSolverRequest converts the wire request into a busytime.Request,
// validating the kind/instance combination.
func (r Request) ToSolverRequest() (busytime.Request, error) {
	kind, err := ParseKind(r.Kind)
	if err != nil {
		return busytime.Request{}, err
	}
	// The same sanity cap the instance coordinates get: a budget outside
	// ±2^40 cannot be legitimate and would feed the admission-control
	// arithmetic values it is not hardened for.
	if r.Budget < 0 || r.Budget > maxWireCoord {
		return busytime.Request{}, fmt.Errorf("server: budget %d outside [0, 2^40]", r.Budget)
	}
	if r.TransitionBudget < 0 {
		return busytime.Request{}, fmt.Errorf("server: transition budget %d, need >= 0", r.TransitionBudget)
	}
	req := busytime.Request{
		Kind: kind, Budget: r.Budget,
		BaseID: r.BaseID, TransitionBudget: r.TransitionBudget,
	}
	if r.TimeoutMS > 0 {
		req.Timeout = time.Duration(r.TimeoutMS) * time.Millisecond
	}
	switch {
	case r.Rect != nil && r.Instance != nil:
		return busytime.Request{}, fmt.Errorf("server: request carries both an instance and a rect instance")
	case r.Rect != nil:
		if r.Kind != "" && kind != busytime.KindMinBusy2D {
			return busytime.Request{}, fmt.Errorf("server: rect instance with kind %s", kind)
		}
		rin, err := r.Rect.ToRectInstance()
		if err != nil {
			return busytime.Request{}, err
		}
		req.Rect = &rin
		req.Kind = busytime.KindMinBusy2D
	case r.Instance != nil:
		if kind == busytime.KindMinBusy2D {
			return busytime.Request{}, fmt.Errorf("server: kind %s needs a rect instance", kind)
		}
		if err := checkWireInstance(r.Instance); err != nil {
			return busytime.Request{}, err
		}
		req.Instance = *r.Instance
	default:
		return busytime.Request{}, fmt.Errorf("server: request carries no instance")
	}
	return req, nil
}

// Jobs counts the jobs the request asks the solver to place — the size
// admission control compares against the configured cap.
func (r Request) Jobs() int {
	if r.Rect != nil {
		return len(r.Rect.Jobs)
	}
	if r.Instance != nil {
		return len(r.Instance.Jobs)
	}
	return 0
}

// Result is the wire form of a structured solve outcome. Certified is
// the Result.Certificate() verdict re-derived on the server from the
// schedule itself; Machine is the (compacted) job-to-machine assignment
// in instance order, so clients can reconstruct the schedule and
// re-verify locally. Error is the per-request failure of a batch item
// (or of a single solve, alongside a non-2xx status); a Result with a
// non-empty Error carries no schedule.
type Result struct {
	// ID names this result in the server's reoptimization cache (when
	// enabled); a later Request.BaseID may reference it. Cache reports
	// how the result was served ("hit", "repair" or "miss"), BaseID the
	// incumbent a repair started from, and Transition how many
	// carried-over jobs the repair reassigned.
	ID               string  `json:"id,omitempty"`
	BaseID           string  `json:"base_id,omitempty"`
	Transition       int     `json:"transition,omitempty"`
	Cache            string  `json:"cache,omitempty"`
	Algorithm        string  `json:"algorithm,omitempty"`
	Kind             string  `json:"kind,omitempty"`
	Class            string  `json:"class,omitempty"`
	Cost             int64   `json:"cost"`
	Scheduled        int     `json:"scheduled"`
	N                int     `json:"n"`
	Machines         int     `json:"machines"`
	MachinesOpened   int     `json:"machines_opened,omitempty"`
	PeakOpen         int     `json:"peak_open,omitempty"`
	Rejected         int     `json:"rejected,omitempty"`
	LowerBound       int64   `json:"lower_bound"`
	RatioVsBound     float64 `json:"ratio_vs_bound"`
	Budget           int64   `json:"budget,omitempty"`
	ElapsedNS        int64   `json:"elapsed_ns"`
	Machine          []int   `json:"machine,omitempty"`
	Certified        bool    `json:"certified"`
	CertificateError string  `json:"certificate_error,omitempty"`
	Error            string  `json:"error,omitempty"`
	// Trace is the request's span tree, echoed only to clients that sent
	// a traceparent header. WireResult never populates it: the handler
	// attaches it explicitly, so batch siblings and replayed results stay
	// byte-identical with or without tracing.
	Trace *trace.Node `json:"trace,omitempty"`
}

// WireResult encodes a solver Result, re-deriving the certificate
// verdict so every served response carries it.
func WireResult(res busytime.Result) Result {
	out := Result{Kind: res.Kind.String()}
	if res.Err != nil {
		out.Error = res.Err.Error()
		return out
	}
	out.ID = res.ID
	out.BaseID = res.BaseID
	out.Transition = res.Transition
	out.Cache = res.CacheOutcome
	out.Algorithm = res.Algorithm
	out.Class = res.Class.String()
	out.Cost = res.Cost
	out.Scheduled = res.Scheduled
	out.N = res.N
	out.Machines = res.Machines
	out.MachinesOpened = res.MachinesOpened
	out.PeakOpen = res.PeakOpen
	out.Rejected = res.Rejected
	out.LowerBound = res.LowerBound
	out.RatioVsBound = res.RatioVsBound
	out.Budget = res.Budget
	out.ElapsedNS = res.Elapsed.Nanoseconds()
	if res.Rect != nil {
		out.Machine = append([]int(nil), res.Rect.Machine...)
	} else {
		out.Machine = res.Schedule.CompactMachines().Machine
	}
	if cerr := res.Certificate(); cerr != nil {
		out.CertificateError = cerr.Error()
	} else {
		out.Certified = true
	}
	return out
}

// StreamOpen is the first NDJSON line of a POST /v1/stream session: the
// machine capacity, the online strategy to drive (registered name or
// alias; empty picks the strongest registered strategy), and an optional
// busy-time budget for admission-control strategies. Session optionally
// fixes the session id (1–64 chars of [A-Za-z0-9._-]) — the handle for
// resuming after a disconnect and for fetching the journal; when empty
// the server generates one and reports it on the open event.
type StreamOpen struct {
	G        int    `json:"g"`
	Strategy string `json:"strategy,omitempty"`
	Budget   int64  `json:"budget,omitempty"`
	Session  string `json:"session,omitempty"`
}

// StreamArrival is one arrival event line of a stream session: a rigid
// job revealed at its start time. Weight defaults to 1 when omitted.
type StreamArrival struct {
	ID     int   `json:"id"`
	Start  int64 `json:"start"`
	End    int64 `json:"end"`
	Weight int64 `json:"weight,omitempty"`
}

// ToJob decodes and validates the arrival under the wire sanity caps.
func (a StreamArrival) ToJob() (job.Job, error) {
	if err := checkWireInterval("arrival", a.ID, a.Start, a.End); err != nil {
		return job.Job{}, err
	}
	if a.End <= a.Start {
		return job.Job{}, fmt.Errorf("server: arrival %d has empty interval [%d, %d)", a.ID, a.Start, a.End)
	}
	w := a.Weight
	if w == 0 {
		w = 1
	}
	if w < 1 || w > maxWireWeight {
		return job.Job{}, fmt.Errorf("server: arrival %d has weight %d outside [1, 2^40]", a.ID, a.Weight)
	}
	j := job.New(a.ID, a.Start, a.End)
	j.Weight = w
	return j, nil
}

// Stream event types, the "type" discriminator of StreamEvent.
const (
	// StreamEventOpen is the first event of every session: it announces
	// the session id, the canonical strategy, and (on resume) how many
	// arrivals the journal already holds.
	StreamEventOpen = "open"
	// StreamEventAssign reports an arrival committed to a machine.
	StreamEventAssign = "assign"
	// StreamEventReject reports an arrival declined by admission control.
	StreamEventReject = "reject"
	// StreamEventClose carries the session's final report; it is always
	// the last event of a successful stream.
	StreamEventClose = "close"
	// StreamEventError reports a fatal in-stream error; the session ends
	// with it (the HTTP status is already committed to 200 by then).
	StreamEventError = "error"
)

// StreamEvent is one server→client NDJSON line of a stream session:
// exactly one assign/reject event per arrival, a final close event with
// the session report, or a terminal error event. Assign/reject events
// carry the placement (machine id in opening order, whether it was
// freshly opened, the busy time it added) and the live telemetry after
// the event: running cost, the Observation 2.1 lower bound over admitted
// arrivals, and their ratio — the empirical competitive ratio so far.
type StreamEvent struct {
	Type string `json:"type"`
	// Session identifies the journaled session (open and close events).
	Session string `json:"session,omitempty"`
	// Resumed marks an open event continuing an interrupted session;
	// Replay marks a re-emitted journal-tail event on such a resume.
	Resumed bool `json:"resumed,omitempty"`
	Replay  bool `json:"replay,omitempty"`
	// Assign / reject fields.
	Seq      int   `json:"seq,omitempty"`
	JobID    int   `json:"job_id,omitempty"`
	Machine  int   `json:"machine,omitempty"`
	Opened   bool  `json:"opened,omitempty"`
	Marginal int64 `json:"marginal,omitempty"`
	Open     int   `json:"open_machines,omitempty"`
	// Per-stage serving timings for assign/reject events: time queued
	// before the flush, the flush's wall clock, this arrival's strategy
	// time. Telemetry only — deliberately absent from the journal, whose
	// records are a deterministic function of the arrival sequence.
	QueueNS int64 `json:"queue_ns,omitempty"`
	FlushNS int64 `json:"flush_ns,omitempty"`
	SolveNS int64 `json:"solve_ns,omitempty"`
	// Telemetry after the event (also the final totals on close).
	Cost       int64   `json:"cost"`
	LowerBound int64   `json:"lower_bound"`
	Ratio      float64 `json:"ratio"`
	// Close-only fields (Strategy and Arrivals also ride the open event).
	Strategy       string `json:"strategy,omitempty"`
	Arrivals       int    `json:"arrivals,omitempty"`
	Admitted       int    `json:"admitted,omitempty"`
	Rejected       int    `json:"rejected,omitempty"`
	AdmittedWeight int64  `json:"admitted_weight,omitempty"`
	RejectedWeight int64  `json:"rejected_weight,omitempty"`
	MachinesOpened int    `json:"machines_opened,omitempty"`
	PeakOpen       int    `json:"peak_open,omitempty"`
	// Chain is the journal's final hash on close — the certificate a
	// client can verify against GET /v1/stream/journal.
	Chain string `json:"chain,omitempty"`
	// Error-only field.
	Error string `json:"error,omitempty"`
	// Trace rides only a close event, only when the client opened the
	// stream with a traceparent header: the session's root span plus one
	// aggregate node per serving stage. It is serving telemetry, not part
	// of the journaled close report — offline replay comparisons must
	// ignore it.
	Trace *trace.Node `json:"trace,omitempty"`
}

// WireStreamEvent encodes one session event. A rejected arrival has no
// machine: the internal RejectJob sentinel stays off the wire (the
// "reject" type is the whole signal), so clients never see a negative
// machine id.
func WireStreamEvent(ev online.Event) StreamEvent {
	out := StreamEvent{
		Type:       StreamEventAssign,
		Seq:        ev.Seq,
		JobID:      ev.JobID,
		Machine:    ev.Machine,
		Opened:     ev.Opened,
		Marginal:   ev.Marginal,
		Open:       ev.Open,
		Cost:       ev.Cost,
		LowerBound: ev.LowerBound,
		Ratio:      ev.Ratio,
	}
	if ev.Rejected {
		out.Type = StreamEventReject
		out.Machine = 0
	}
	return out
}

// WireStreamClose encodes the session's final report with its identity:
// the session id and the journal chain's final hash. It is shared by
// the handler and the clients that re-derive the expected close event
// from an offline replay (busysim stream -verify, the e2e tests), so
// "byte-equal to the offline harness" — now including the certificate
// chain — is checked against one codec.
func WireStreamClose(sum online.Summary, session, chain string) StreamEvent {
	return StreamEvent{
		Type:           StreamEventClose,
		Session:        session,
		Chain:          chain,
		Strategy:       sum.Strategy,
		Arrivals:       sum.Arrivals,
		Admitted:       sum.Admitted,
		Rejected:       sum.Rejected,
		AdmittedWeight: sum.AdmittedWeight,
		RejectedWeight: sum.RejectedWeight,
		Cost:           sum.Cost,
		MachinesOpened: sum.MachinesOpened,
		PeakOpen:       sum.PeakOpen,
		LowerBound:     sum.LowerBound,
		Ratio:          sum.Ratio,
	}
}

// AlgorithmInfo is the wire form of one registry entry, served by
// GET /v1/algorithms.
type AlgorithmInfo struct {
	Name      string   `json:"name"`
	Aliases   []string `json:"aliases,omitempty"`
	Kind      string   `json:"kind"`
	Classes   []string `json:"classes,omitempty"`
	Guarantee string   `json:"guarantee"`
	Exact     bool     `json:"exact,omitempty"`
	Oracle    bool     `json:"oracle,omitempty"`
	MinG      int      `json:"min_g,omitempty"`
	MaxG      int      `json:"max_g,omitempty"`
	Ref       string   `json:"ref,omitempty"`
}

// WireAlgorithms renders the full registry in registry.List() order.
func WireAlgorithms() []AlgorithmInfo {
	regs := busytime.Algorithms()
	out := make([]AlgorithmInfo, len(regs))
	for i, a := range regs {
		info := AlgorithmInfo{
			Name:      a.Name,
			Aliases:   a.Aliases,
			Kind:      a.Kind.String(),
			Guarantee: a.Guarantee,
			Exact:     a.Exact,
			Oracle:    a.Oracle,
			MinG:      a.MinG,
			MaxG:      a.MaxG,
			Ref:       a.Ref,
		}
		for _, c := range a.Classes {
			info.Classes = append(info.Classes, c.String())
		}
		out[i] = info
	}
	return out
}
