// Package core implements the paper's primary contribution: the MinBusy
// and MaxThroughput scheduling algorithms on parallel machines with
// bounded parallelism g.
//
// A schedule assigns jobs to machines; a machine's cost is the measure of
// its busy period (the union of its jobs' intervals), and the schedule's
// cost is the sum over machines (Section 2). MinBusy schedules every job
// and minimizes cost; MaxThroughput schedules a subset within a busy-time
// budget T and maximizes the number (or weight) of scheduled jobs.
//
// Each algorithm documents its paper reference, its approximation
// guarantee, and the instance class it applies to. All of them return
// schedules that pass Schedule.Validate, and the test suite checks every
// returned schedule against the validity and bound invariants of
// Observation 2.1.
package core

import (
	"fmt"

	"repro/internal/interval"
	"repro/internal/job"
)

// Unscheduled marks a job left out of a partial schedule.
const Unscheduled = -1

// Schedule is a (possibly partial) assignment of the instance's jobs to
// machines. Machine[i] is the machine index of Jobs[i] in the originating
// instance, or Unscheduled. Machine indices are arbitrary labels: cost is
// defined by grouping, not by index values.
type Schedule struct {
	Instance job.Instance
	Machine  []int
}

// NewSchedule returns an all-unscheduled schedule for the instance.
func NewSchedule(in job.Instance) Schedule {
	m := make([]int, len(in.Jobs))
	for i := range m {
		m[i] = Unscheduled
	}
	return Schedule{Instance: in, Machine: m}
}

// Assign places job position i (index into Instance.Jobs) on machine m.
func (s *Schedule) Assign(i, m int) {
	if m < 0 {
		panic(fmt.Sprintf("core: Assign(%d, %d): negative machine", i, m))
	}
	s.Machine[i] = m
}

// MachineJobs groups job positions by machine, omitting unscheduled jobs.
// Keys are machine indices; values are job positions in increasing order.
func (s Schedule) MachineJobs() map[int][]int {
	out := map[int][]int{}
	for i, m := range s.Machine {
		if m != Unscheduled {
			out[m] = append(out[m], i)
		}
	}
	return out
}

// Cost returns the total busy time Σ_i span(J_i) over machines. Machines
// whose jobs form disconnected busy periods are charged only for busy
// measure, matching the paper's convention that such a machine can be
// split into contiguous-busy machines at no cost change.
func (s Schedule) Cost() int64 {
	var total int64
	for _, positions := range s.MachineJobs() {
		ivs := make([]interval.Interval, len(positions))
		for k, p := range positions {
			ivs[k] = s.Instance.Jobs[p].Interval
		}
		total += interval.Span(ivs)
	}
	return total
}

// Throughput returns the number of scheduled jobs.
func (s Schedule) Throughput() int {
	n := 0
	for _, m := range s.Machine {
		if m != Unscheduled {
			n++
		}
	}
	return n
}

// WeightedThroughput returns the total weight of scheduled jobs (the
// Section 5 weighted extension; equals Throughput for unit weights).
func (s Schedule) WeightedThroughput() int64 {
	var total int64
	for i, m := range s.Machine {
		if m != Unscheduled {
			total += s.Instance.Jobs[i].Weight
		}
	}
	return total
}

// Machines returns the number of distinct machines used.
func (s Schedule) Machines() int { return len(s.MachineJobs()) }

// Saving returns sav(s) = len(scheduled jobs) − cost(s), the paper's saving
// relative to the one-job-per-machine schedule (Section 2).
func (s Schedule) Saving() int64 {
	var lenScheduled int64
	for i, m := range s.Machine {
		if m != Unscheduled {
			lenScheduled += s.Instance.Jobs[i].Len()
		}
	}
	return lenScheduled - s.Cost()
}

// Validate checks that the schedule is well-formed and valid: machine
// slice length matches the instance, and no machine ever runs more than g
// jobs simultaneously (counting demands when jobs carry them). Of several
// overloaded machines it reports the lowest-numbered, so the same
// schedule always gives the same error.
func (s Schedule) Validate() error {
	if len(s.Machine) != len(s.Instance.Jobs) {
		return fmt.Errorf("core: schedule covers %d jobs, instance has %d", len(s.Machine), len(s.Instance.Jobs))
	}
	for i, m := range s.Machine {
		if m != Unscheduled && m < 0 {
			return fmt.Errorf("core: job position %d on invalid machine %d", i, m)
		}
	}
	bad, badLoad := -1, int64(0)
	for m, positions := range s.MachineJobs() {
		if bad >= 0 && m > bad {
			continue
		}
		ivs := make([]interval.Interval, len(positions))
		demands := make([]int64, len(positions))
		for k, p := range positions {
			ivs[k] = s.Instance.Jobs[p].Interval
			demands[k] = s.Instance.Jobs[p].Demand
		}
		if load := interval.WeightedMaxConcurrency(ivs, demands); load > int64(s.Instance.G) {
			bad, badLoad = m, load
		}
	}
	if bad >= 0 {
		return fmt.Errorf("core: machine %d carries load %d > g = %d", bad, badLoad, s.Instance.G)
	}
	return nil
}

// CompactMachines renumbers machines to 0..k−1 in order of first use,
// producing a canonical labeling for output and comparison.
func (s Schedule) CompactMachines() Schedule {
	out := Schedule{Instance: s.Instance, Machine: make([]int, len(s.Machine))}
	next := 0
	remap := map[int]int{}
	for i, m := range s.Machine {
		if m == Unscheduled {
			out.Machine[i] = Unscheduled
			continue
		}
		if _, ok := remap[m]; !ok {
			remap[m] = next
			next++
		}
		out.Machine[i] = remap[m]
	}
	return out
}

// scheduleFromGroups builds a schedule assigning each group of job
// positions to its own machine; positions absent from every group stay
// unscheduled.
func scheduleFromGroups(in job.Instance, groups [][]int) Schedule {
	s := NewSchedule(in)
	for m, group := range groups {
		for _, p := range group {
			s.Assign(p, m)
		}
	}
	return s
}
