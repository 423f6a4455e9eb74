package online

import (
	"fmt"
	"math"

	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/safemath"
	"repro/internal/stats"
)

// RatioTracker maintains the Observation 2.1 lower bound, the running
// busy-time cost and their ratio incrementally, one admitted arrival at a
// time: the incremental form of job.Instance.LowerBoundByStart, so a
// streaming session can attach a live competitive ratio to every event
// without retaining the jobs.
//
// Observe requires non-decreasing start times (the arrival order Session
// enforces): under that order the union of admitted intervals grows at a
// single frontier, so span(J) is one interval.Extend step per event, and
// every machine's busy period stays contiguous, so summing placement
// marginals reproduces Schedule.Cost exactly.
type RatioTracker struct {
	g        int64
	totalLen int64 // Σ len over admitted jobs (parallelism bound numerator)
	covered  int64 // measure of the union of admitted intervals
	frontier int64 // right edge of the union seen so far
	cost     int64 // Σ placement marginals = total busy time
}

// NewRatioTracker returns a tracker for capacity g (g >= 1).
func NewRatioTracker(g int) *RatioTracker {
	if g < 1 {
		panic(fmt.Sprintf("online: NewRatioTracker(%d): need g >= 1", g))
	}
	return &RatioTracker{g: int64(g), frontier: math.MinInt64}
}

// Observe records one admitted arrival: its interval (start must be >= every
// earlier observed start) and the busy time its placement added.
func (t *RatioTracker) Observe(iv interval.Interval, marginal int64) {
	// The sums saturate rather than wrap: a stream of ~4M wire-capped
	// (2^40) lengths is enough to pass MaxInt64, and a wrapped total
	// would report a bogus competitive ratio instead of a clamped one.
	t.totalLen = safemath.SatAdd(t.totalLen, iv.Len())
	t.cost = safemath.SatAdd(t.cost, marginal)
	t.covered = safemath.SatAdd(t.covered, interval.Extend(&t.frontier, iv))
}

// Cost returns the running busy time of the committed placements.
func (t *RatioTracker) Cost() int64 { return t.cost }

// LowerBound returns max(⌈len/g⌉, span) over the admitted arrivals so far —
// Observation 2.1 applied to the prefix.
func (t *RatioTracker) LowerBound() int64 {
	pb := safemath.CeilDiv(t.totalLen, t.g)
	if t.covered > pb {
		return t.covered
	}
	return pb
}

// Ratio returns Cost/LowerBound, the live empirical competitive ratio
// against the Observation 2.1 bound (1 when nothing is admitted yet).
func (t *RatioTracker) Ratio() float64 { return stats.Ratio(t.cost, t.LowerBound()) }

// Event is one streamed arrival's outcome: the admission decision, the
// placement, and the running cost/lower-bound/ratio telemetry after it.
// The journal stores it as an event record's payload, so its JSON tags
// are the journal's on-disk format and part of every chain hash.
type Event struct {
	// Seq numbers the arrival within its session, starting at 0.
	Seq int `json:"seq"`
	// JobID echoes the arrival's id.
	JobID int `json:"job_id"`
	// Rejected reports an admission-control rejection; Machine is
	// RejectJob and Marginal 0.
	Rejected bool `json:"rejected,omitempty"`
	// Machine is the committed machine id (opening order), RejectJob on
	// rejection.
	Machine int `json:"machine"`
	// Opened reports whether the placement opened a fresh machine (false
	// when an open machine was reused or the job was rejected).
	Opened bool `json:"opened,omitempty"`
	// Marginal is the busy time this placement added.
	Marginal int64 `json:"marginal"`
	// Cost, LowerBound and Ratio are the running totals after the event.
	Cost       int64   `json:"cost"`
	LowerBound int64   `json:"lower_bound"`
	Ratio      float64 `json:"ratio"`
	// Open counts machines open after the event.
	Open int `json:"open"`
}

// Summary is a session's closing report, with the lower bound and ratio
// taken over the admitted arrivals. A Replay's Result carries the
// Summary of the session it ran, and the journal stores it as the close
// record's payload under these JSON tags.
type Summary struct {
	Strategy       string  `json:"strategy"`
	Arrivals       int     `json:"arrivals"`
	Admitted       int     `json:"admitted"`
	Rejected       int     `json:"rejected,omitempty"`
	AdmittedWeight int64   `json:"admitted_weight"`
	RejectedWeight int64   `json:"rejected_weight,omitempty"`
	Cost           int64   `json:"cost"`
	MachinesOpened int     `json:"machines_opened"`
	PeakOpen       int     `json:"peak_open"`
	LowerBound     int64   `json:"lower_bound"`
	Ratio          float64 `json:"ratio"`
}

// Session is an incremental online run: arrivals are offered one at a
// time, each returning its placement event with live telemetry. It backs
// the daemon's streaming endpoint and Replay. The session retains no
// per-job state beyond the open machines, which keep every job placed on
// them until they close, and an arrival allocates only to grow that
// state: opening a machine (the Machine, its thread list and its first
// thread), opening a thread, appending to a thread whose slice is full,
// or growing the list of open machines.
//
// A Session is not safe for concurrent use; the streaming server drives
// one per connection.
type Session struct {
	sim       *simulator
	st        Strategy
	tracker   *RatioTracker
	arrivals  int
	lastStart int64
}

// NewSession starts a session with capacity g feeding the strategy. Like
// a Budgeted value, a Session is single-use: strategies carry state, so
// build a fresh strategy per session.
func NewSession(g int, st Strategy) (*Session, error) {
	if g < 1 {
		return nil, fmt.Errorf("online: capacity g = %d, need g >= 1", g)
	}
	if st == nil {
		return nil, fmt.Errorf("online: session needs a strategy")
	}
	return &Session{sim: newSimulator(g), st: st, tracker: NewRatioTracker(g)}, nil
}

// Offer feeds one arrival through the strategy and returns its event. It
// errors on structurally invalid jobs, on out-of-order arrivals (starts
// must be non-decreasing — the defining property of an arrival stream,
// and what keeps the incremental cost and bound accounting exact), and on
// strategy bugs; after an error the session is no longer usable.
func (s *Session) Offer(j job.Job) (Event, error) {
	if j.Interval.Empty() {
		return Event{}, fmt.Errorf("online: arrival %d has empty interval %v", j.ID, j.Interval)
	}
	if j.Weight < 1 {
		return Event{}, fmt.Errorf("online: arrival %d has weight %d, need >= 1", j.ID, j.Weight)
	}
	if s.arrivals > 0 && j.Start() < s.lastStart {
		return Event{}, fmt.Errorf("online: arrival %d starts at %d before the stream clock %d", j.ID, j.Start(), s.lastStart)
	}
	s.lastStart = j.Start()
	s.sim.advance(j.Start())
	pl, err := s.sim.place(j, s.st)
	if err != nil {
		return Event{}, err
	}
	seq := s.arrivals
	s.arrivals++
	if !pl.Rejected {
		s.tracker.Observe(j.Interval, pl.Marginal)
	}
	return Event{
		Seq:        seq,
		JobID:      j.ID,
		Rejected:   pl.Rejected,
		Machine:    pl.Machine,
		Opened:     pl.Opened,
		Marginal:   pl.Marginal,
		Cost:       s.tracker.Cost(),
		LowerBound: s.tracker.LowerBound(),
		Ratio:      s.tracker.Ratio(),
		Open:       len(s.sim.open),
	}, nil
}

// Arrivals returns the number of arrivals offered so far — the sequence
// number the next arrival will receive. It is the checkpoint cursor for
// journaled sessions: a resumed session continues from this position.
func (s *Session) Arrivals() int { return s.arrivals }

// Clock returns the stream clock: the start time of the latest arrival
// (0 before the first). A resumed session rebuilt by journal replay
// reports the same clock as the interrupted one, so resume handlers can
// reject time-travelling continuations up front.
func (s *Session) Clock() int64 { return s.lastStart }

// Summary returns the session's closing report. It may be read at any
// point; the streaming endpoint emits it once the client's arrival stream
// ends.
func (s *Session) Summary() Summary {
	sum := s.sim.summary(s.st.Name())
	sum.Arrivals = s.arrivals
	sum.Admitted = s.arrivals - s.sim.rejected
	sum.Cost = s.tracker.Cost()
	sum.LowerBound = s.tracker.LowerBound()
	sum.Ratio = s.tracker.Ratio()
	return sum
}
