// Package online implements event-driven online busy-time scheduling: jobs
// arrive over time and must be committed to a capacity-g machine
// irrevocably, with no knowledge of future arrivals.
//
// This is the online variant of the MinBusy problem the rest of the
// library solves offline. It follows the model of Shalom, Voloshin, Wong,
// Yung and Zaks ("Online optimization of busy time on parallel machines")
// and, for flexible jobs with execution windows, Albers and van der
// Heijden ("Online Busy Time Scheduling with Flexible Jobs",
// arXiv:2405.08595). Each rigid job is revealed at its start time; a
// flexible job is revealed at its release time and the scheduler commits
// both a machine and a start time inside the window (see flex.go).
//
// The replay harness (Replay) owns the event loop and the machine state:
// it feeds an instance's jobs through a Strategy in arrival order, opens a
// machine when a job is placed on no existing one, and closes a machine
// once the clock passes the end of its last job — a closed machine never
// accepts further jobs, since restarting it would begin a new busy period
// and is therefore indistinguishable from opening a fresh machine.
// Strategies are pure placement policies over the currently-open machines.
//
// Machine threads are backed by interval treaps (internal/itree), the same
// structure behind core.FirstFit, so a fit check against an open
// machine costs O(g log n).
package online

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/itree"
	"repro/internal/job"
	"repro/internal/safemath"
)

// Machine is one open machine's state during a replay: up to g threads of
// pairwise non-overlapping jobs, plus busy-period bookkeeping. Strategies
// read machines; only the harness mutates them.
type Machine struct {
	id      int
	tag     int64
	g       int
	threads []*itree.Set
	busy    interval.Interval // hull of all placed jobs
	jobs    int
}

// ID returns the machine's index in opening order (also its index in the
// schedule the replay returns).
func (m *Machine) ID() int { return m.id }

// Tag returns the label the strategy attached when opening the machine
// (e.g. a length bucket); 0 unless the strategy set one.
func (m *Machine) Tag() int64 { return m.tag }

// Jobs returns the number of jobs placed on the machine so far.
func (m *Machine) Jobs() int { return m.jobs }

// BusyStart returns the start of the machine's busy period.
func (m *Machine) BusyStart() int64 { return m.busy.Start }

// BusyEnd returns the end of the machine's busy period: the machine closes
// once the clock reaches it.
func (m *Machine) BusyEnd() int64 { return m.busy.End }

// Fits reports whether iv can be placed on the machine: some thread has no
// overlapping job, or a fresh thread is still available under capacity g.
func (m *Machine) Fits(iv interval.Interval) bool {
	for _, th := range m.threads {
		if !th.Overlaps(iv) {
			return true
		}
	}
	return len(m.threads) < m.g
}

// MarginalCost returns the busy time placing iv on the machine would add:
// the growth of the machine's busy hull. For arrival-ordered rigid streams
// every machine's busy period is contiguous (each arrival starts before
// the machine's busy end), so the hull growth is exactly the cost growth;
// BestFit and the budgeted admission control both price placements with
// it. Opening a fresh machine costs iv.Len().
func (m *Machine) MarginalCost(iv interval.Interval) int64 {
	return safemath.SatSub(m.busy.Hull(iv).Len(), m.busy.Len())
}

// add places iv on the first accepting thread, opening a new thread when
// permitted. It reports whether the placement succeeded.
func (m *Machine) add(iv interval.Interval) bool {
	for _, th := range m.threads {
		if th.Insert(iv) {
			m.extend(iv)
			return true
		}
	}
	if len(m.threads) < m.g {
		th := &itree.Set{}
		th.Insert(iv)
		m.threads = append(m.threads, th)
		m.extend(iv)
		return true
	}
	return false
}

func (m *Machine) extend(iv interval.Interval) {
	m.busy = m.busy.Hull(iv)
	m.jobs++
}

// Pick sentinels: any negative index other than RejectJob opens a fresh
// machine; RejectJob declines the arrival entirely (admission control).
const (
	// OpenMachine asks the harness to open a fresh machine for the job.
	OpenMachine = -1
	// RejectJob declines the arrival: the job is never scheduled. Only
	// admission-control strategies (Budgeted) return it; the harness
	// records the rejection and charges no busy time.
	RejectJob = -2
)

// Strategy is an online placement policy. For each arriving job, Pick
// inspects the currently-open machines and returns either the index into
// open of the machine to extend, OpenMachine (or any other negative index
// except RejectJob) to open a fresh machine labeled tag, or RejectJob to
// decline the arrival. Picking a machine the job does not fit on is a
// strategy bug and fails the replay.
type Strategy interface {
	// Name identifies the strategy in reports and CLI output.
	Name() string
	// Pick chooses a destination for j among the open machines (listed in
	// opening order). tag is only used when idx < 0.
	Pick(open []*Machine, j job.Job) (idx int, tag int64)
}

// BudgetSetter is implemented by admission-control strategies whose
// rejection rule depends on a busy-time budget; the Solver and the
// streaming endpoint pass the request's budget through it before the
// first arrival.
type BudgetSetter interface {
	Strategy
	// SetBudget installs the busy-time budget; <= 0 means unlimited.
	SetBudget(budget int64)
}

// Result captures one online run.
type Result struct {
	// Schedule is the committed assignment over the replayed instance; it
	// always passes Validate and schedules every admitted job (every job,
	// unless the strategy applies admission control).
	Schedule core.Schedule
	// Strategy is the name of the policy that produced the run.
	Strategy string
	// Cost is the total busy time Schedule.Cost().
	Cost int64
	// MachinesOpened counts machines ever opened.
	MachinesOpened int
	// PeakOpen is the maximum number of simultaneously open machines.
	PeakOpen int
	// Rejected counts arrivals declined by admission control (0 for the
	// non-rejecting strategies).
	Rejected int
	// AdmittedWeight and RejectedWeight split the stream's total weight
	// by the admission decision.
	AdmittedWeight int64
	RejectedWeight int64
}

// CompetitiveVs returns Cost/offline, the empirical competitive ratio
// against an offline cost, or 0 when offline is 0.
func (r Result) CompetitiveVs(offline int64) float64 {
	if offline == 0 {
		return 0
	}
	return float64(r.Cost) / float64(offline)
}

// Replay feeds the instance's jobs through the strategy in arrival order
// (non-decreasing start time, ties by end then position) and returns the
// committed schedule with run statistics. It errors on invalid instances
// and on strategy bugs (out-of-range or infeasible picks), never on valid
// input: every strategy can always open a fresh machine.
func Replay(in job.Instance, st Strategy) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	sim := newSimulator(in.G)
	s := core.NewSchedule(in)
	for _, p := range job.ByStart(in.Jobs) {
		sim.advance(in.Jobs[p].Start())
		pl, err := sim.place(in.Jobs[p], st)
		if err != nil {
			return Result{}, err
		}
		if !pl.Rejected {
			s.Assign(p, pl.Machine)
		}
	}
	return sim.result(s, st.Name()), nil
}

// Placement describes how the harness routed one arrival: the machine it
// was committed to (with whether that machine was freshly opened), the
// busy time the placement added, or the rejection verdict.
type Placement struct {
	// Machine is the committed machine's id, or RejectJob when rejected.
	Machine int
	// Opened reports whether the placement opened a fresh machine.
	Opened bool
	// Rejected reports an admission-control rejection; no busy time is
	// charged and Machine is RejectJob.
	Rejected bool
	// Marginal is the busy time the placement added: the job's length for
	// a fresh machine, the busy-period extension for a reused one, 0 for
	// a rejection.
	Marginal int64
}

// simulator is the event-driven machine state shared by Replay, FlexReplay
// and Session: the clock advances with arrivals, machines close as the
// clock passes their busy end, and each placement goes through a Strategy.
type simulator struct {
	g              int
	clock          int64
	open           []*Machine
	opened         int
	peakOpen       int
	rejected       int
	admittedWeight int64
	rejectedWeight int64
}

func newSimulator(g int) *simulator {
	return &simulator{g: g}
}

// advance moves the clock to t and retires machines whose busy period has
// ended: a machine with BusyEnd <= t can never again share busy time with
// a future job.
func (sim *simulator) advance(t int64) {
	sim.clock = t
	kept := sim.open[:0]
	for _, m := range sim.open {
		if m.BusyEnd() > t {
			kept = append(kept, m)
		}
	}
	sim.open = kept
}

// place routes one arriving job through the strategy and returns the
// resulting placement. The caller advances the clock to the arrival time
// first; place itself does not touch the clock, because a flexible job
// may commit a start later than the current release.
func (sim *simulator) place(j job.Job, st Strategy) (Placement, error) {
	idx, tag := st.Pick(sim.open, j)
	if idx >= len(sim.open) {
		return Placement{}, fmt.Errorf("online: strategy %s picked machine index %d with %d open", st.Name(), idx, len(sim.open))
	}
	if idx == RejectJob {
		sim.rejected++
		sim.rejectedWeight = safemath.SatAdd(sim.rejectedWeight, j.Weight)
		return Placement{Machine: RejectJob, Rejected: true}, nil
	}
	sim.admittedWeight = safemath.SatAdd(sim.admittedWeight, j.Weight)
	if idx >= 0 {
		m := sim.open[idx]
		marginal := m.MarginalCost(j.Interval)
		if !m.add(j.Interval) {
			return Placement{}, fmt.Errorf("online: strategy %s picked machine %d, but job %v does not fit", st.Name(), m.id, j)
		}
		return Placement{Machine: m.id, Marginal: marginal}, nil
	}
	m := &Machine{id: sim.opened, tag: tag, g: sim.g}
	m.add(j.Interval)
	sim.open = append(sim.open, m)
	sim.opened++
	if len(sim.open) > sim.peakOpen {
		sim.peakOpen = len(sim.open)
	}
	return Placement{Machine: m.id, Opened: true, Marginal: j.Interval.Len()}, nil
}

func (sim *simulator) result(s core.Schedule, name string) Result {
	return Result{
		Schedule:       s,
		Strategy:       name,
		Cost:           s.Cost(),
		MachinesOpened: sim.opened,
		PeakOpen:       sim.peakOpen,
		Rejected:       sim.rejected,
		AdmittedWeight: sim.admittedWeight,
		RejectedWeight: sim.rejectedWeight,
	}
}
