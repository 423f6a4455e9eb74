package online

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/safemath"
)

// FlexJob is a flexible job in the commitment model of Albers and van der
// Heijden (arXiv:2405.08595): it has processing length Len and must run
// contiguously inside the window [Release, Deadline). The job is revealed
// at its release time, and the scheduler immediately commits a machine and
// a concrete start time; both decisions are irrevocable.
type FlexJob struct {
	ID     int
	Window interval.Interval // [Release, Deadline)
	Len    int64             // processing length, 1 <= Len <= Window.Len()
	Weight int64             // throughput weight; defaults to 1 when 0
}

// NewFlexJob builds a flexible job with window [release, deadline) and the
// given processing length.
func NewFlexJob(id int, release, deadline, length int64) FlexJob {
	return FlexJob{ID: id, Window: interval.Interval{Start: release, End: deadline}, Len: length, Weight: 1}
}

// Slack returns the window's scheduling freedom, Window.Len() − Len. A
// slack of 0 makes the job rigid.
func (f FlexJob) Slack() int64 { return safemath.SatSub(f.Window.Len(), f.Len) }

// Validate reports the first structural problem with the flexible job.
func (f FlexJob) Validate() error {
	if f.Len < 1 {
		return fmt.Errorf("online: flex job %d has length %d, need >= 1", f.ID, f.Len)
	}
	if f.Slack() < 0 {
		return fmt.Errorf("online: flex job %d has length %d exceeding window %v", f.ID, f.Len, f.Window)
	}
	return nil
}

// Rigid commits the flexible job to the concrete start time, returning the
// rigid job [start, start+Len). It errors when the start violates the
// window.
func (f FlexJob) Rigid(start int64) (job.Job, error) {
	// Saturation keeps an adversarial start from wrapping end negative;
	// a clamped end simply fails the window check below.
	end := safemath.SatAdd(start, f.Len)
	if start < f.Window.Start || end > f.Window.End {
		return job.Job{}, fmt.Errorf("online: flex job %d start %d puts [%d,%d) outside window %v", f.ID, start, start, end, f.Window)
	}
	w := f.Weight
	if w == 0 {
		w = 1
	}
	return job.Job{ID: f.ID, Interval: interval.Interval{Start: start, End: end}, Weight: w, Demand: 1}, nil
}

// StartPolicy chooses the committed start time for a flexible job at its
// release, given the machines currently open. The returned start must keep
// the job inside its window; FlexReplay rejects policies that do not.
type StartPolicy interface {
	// Name identifies the policy in reports and CLI output.
	Name() string
	// Choose returns the start time to commit for f.
	Choose(open []*Machine, f FlexJob) int64
}

// StartASAP returns the policy that starts every job at its release time,
// discarding the window's flexibility. Composing it with any Strategy
// reduces flexible scheduling to the rigid problem.
func StartASAP() StartPolicy { return startASAP{} }

type startASAP struct{}

func (startASAP) Name() string { return "asap" }

func (startASAP) Choose(open []*Machine, f FlexJob) int64 { return f.Window.Start }

// StartAligned returns the policy that delays a job just enough to tuck it
// inside the longest-running open busy period: it starts the job at
// min(deadline, furthest busy end) − Len, clamped to the release. Keeping
// the job inside an already-paid-for busy window costs no new busy time if
// a thread is free there; with no open machine it falls back to ASAP.
func StartAligned() StartPolicy { return startAligned{} }

type startAligned struct{}

func (startAligned) Name() string { return "aligned" }

func (startAligned) Choose(open []*Machine, f FlexJob) int64 {
	var maxEnd int64
	found := false
	for _, m := range open {
		if !found || m.BusyEnd() > maxEnd {
			maxEnd, found = m.BusyEnd(), true
		}
	}
	if !found {
		return f.Window.Start
	}
	latest := safemath.SatSub(f.Window.End, f.Len)
	s := safemath.SatSub(maxEnd, f.Len)
	if s > latest {
		s = latest
	}
	if s < f.Window.Start {
		s = f.Window.Start
	}
	return s
}

// FlexReplay feeds flexible jobs through a start policy and a placement
// strategy in release order: at each release the policy commits a start
// time, the job becomes rigid, and the strategy places it exactly as in
// Replay. The returned schedule is over the committed rigid instance
// (capacity g, IDs preserved from the flexible jobs).
//
// Note that a delayed start may leave a gap on its machine; the busy-time
// cost model charges only busy measure (Schedule.Cost spans the union), so
// gaps are free, matching the paper's machine-splitting convention.
//
// The Result's Summary holds the run's machine and admission statistics
// and its cost, but no arrival counts, bound or ratio: committed starts
// need not come in start order, which the incremental bound needs.
func FlexReplay(g int, flex []FlexJob, pol StartPolicy, st Strategy) (Result, error) {
	if g < 1 {
		return Result{}, fmt.Errorf("online: capacity g = %d, need g >= 1", g)
	}
	order := make([]int, len(flex))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		fa, fb := flex[order[a]], flex[order[b]]
		if fa.Window.Start != fb.Window.Start {
			return fa.Window.Start < fb.Window.Start
		}
		return fa.Window.End < fb.Window.End
	})

	sim := newSimulator(g)
	committed := make([]job.Job, len(flex))
	machine := make([]int, len(flex))
	for _, p := range order {
		f := flex[p]
		if err := f.Validate(); err != nil {
			return Result{}, err
		}
		sim.advance(f.Window.Start)
		rigid, err := f.Rigid(pol.Choose(sim.open, f))
		if err != nil {
			return Result{}, fmt.Errorf("online: start policy %s: %v", pol.Name(), err)
		}
		pl, err := sim.place(rigid, st)
		if err != nil {
			return Result{}, err
		}
		committed[p] = rigid
		machine[p] = pl.Machine
	}

	in := job.Instance{Jobs: committed, G: g}
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	s := core.NewSchedule(in)
	for p, m := range machine {
		// A rejected flexible job stays committed (its rigid interval is
		// part of the replayed instance) but unscheduled.
		if m != RejectJob {
			s.Assign(p, m)
		}
	}
	sum := sim.summary(pol.Name() + "+" + st.Name())
	sum.Cost = s.Cost()
	return Result{Schedule: s, Summary: sum}, nil
}
