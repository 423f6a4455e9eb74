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
	"math"
	"slices"

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
func (s Schedule) Cost() int64 { return s.CostByStart(job.ByStart(s.Instance.Jobs)) }

// CostByStart is Cost for a caller that holds ByStart(s.Instance.Jobs):
// one pass over that order. Each machine's jobs come up in start order,
// so it only keeps, per machine, the end of its current busy period.
func (s Schedule) CostByStart(order []int) int64 {
	jobs := s.Instance.Jobs
	slot, k, _ := slotsOf(s.Machine)
	end := make([]int64, k)
	for c := range end {
		end[c] = math.MinInt64
	}
	var total int64
	for _, p := range order {
		if p >= len(slot) {
			continue // a truncated machine array leaves the rest unscheduled
		}
		c, iv := slot[p], jobs[p].Interval
		switch {
		case c == Unscheduled || iv.Empty():
		case iv.Start >= end[c]:
			total += iv.Len()
			end[c] = iv.End
		case iv.End > end[c]:
			total += iv.End - end[c]
			end[c] = iv.End
		}
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
func (s Schedule) Machines() int {
	slot, k, _ := slotsOf(s.Machine)
	used := make([]bool, k)
	count := 0
	for _, c := range slot {
		if c != Unscheduled && !used[c] {
			used[c] = true
			count++
		}
	}
	return count
}

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
func (s Schedule) Validate() error { return s.ValidateByStart(job.ByStart(s.Instance.Jobs)) }

// ValidateByStart is Validate for a caller that holds
// ByStart(s.Instance.Jobs): the load check is one pass over that order.
func (s Schedule) ValidateByStart(order []int) error {
	if len(s.Machine) != len(s.Instance.Jobs) {
		return fmt.Errorf("core: schedule covers %d jobs, instance has %d", len(s.Machine), len(s.Instance.Jobs))
	}
	for i, m := range s.Machine {
		if m != Unscheduled && m < 0 {
			return fmt.Errorf("core: job position %d on invalid machine %d", i, m)
		}
	}
	slot, k, labels := slotsOf(s.Machine)
	for c, load := range peakLoads(s.Instance.Jobs, order, slot, k) {
		if load > int64(s.Instance.G) {
			bad := c
			if labels != nil {
				bad = labels[c]
			}
			return fmt.Errorf("core: machine %d carries load %d > g = %d", bad, load, s.Instance.G)
		}
	}
	return nil
}

// peakLoads returns the peak load of each of k machines, slot[p] being
// the machine of job position p: one pass over the jobs in ByStart
// order with a min-heap of the running jobs' ends and demands. Every
// running job that ends by a start leaves its machine before that job
// joins, so [1,2) and [2,3) never count together, and a machine's load
// right after a job joins is a candidate peak. For non-negative demands,
// the only ones Instance.Validate admits, these are the peaks
// interval.Sweep finds.
func peakLoads(jobs []job.Job, order, slot []int, k int) []int64 {
	load := make([]int64, k)
	peak := make([]int64, k)
	var running endHeap
	for _, p := range order {
		c, j := slot[p], jobs[p]
		if c == Unscheduled || j.Interval.Empty() {
			continue
		}
		for len(running) > 0 && running[0].end <= j.Start() {
			r := running.pop()
			load[r.slot] -= r.demand
		}
		load[c] += j.Demand
		peak[c] = max(peak[c], load[c])
		running.push(runningJob{end: j.End(), demand: j.Demand, slot: c})
	}
	return peak
}

// runningJob is a started job in peakLoads' heap.
type runningJob struct {
	end, demand int64
	slot        int
}

// endHeap is a binary min-heap of running jobs by end.
type endHeap []runningJob

func (h *endHeap) push(r runningJob) {
	*h = append(*h, r)
	a := *h
	for i := len(a) - 1; i > 0; {
		up := (i - 1) / 2
		if a[up].end <= a[i].end {
			break
		}
		a[up], a[i] = a[i], a[up]
		i = up
	}
}

func (h *endHeap) pop() runningJob {
	a := *h
	top, last := a[0], len(a)-1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < last && a[l].end < a[least].end {
			least = l
		}
		if r < last && a[r].end < a[least].end {
			least = r
		}
		if least == i {
			break
		}
		a[i], a[least] = a[least], a[i]
		i = least
	}
	*h = a
	return top
}

// CompactMachines renumbers machines to 0..k−1 in order of first use,
// producing a canonical labeling for output and comparison.
func (s Schedule) CompactMachines() Schedule {
	slot, k, _ := slotsOf(s.Machine)
	renamed := make([]int, k) // 1 + the new number of a slot; 0 until used
	out := Schedule{Instance: s.Instance, Machine: make([]int, len(s.Machine))}
	next := 0
	for i, c := range slot {
		if c == Unscheduled {
			out.Machine[i] = Unscheduled
			continue
		}
		if renamed[c] == 0 {
			next++
			renamed[c] = next
		}
		out.Machine[i] = renamed[c] - 1
	}
	return out
}

// slotsOf maps machine labels to slots in [0, k), keeping Unscheduled,
// so that per-machine state lives in slices rather than maps. When every
// label lies in [Unscheduled, len(machine)) the labels are the slots and
// labels is nil. Otherwise (a label below Unscheduled or at least
// len(machine)) the slots are the labels' ranks and labels[c] is the
// label at slot c. Either way slots keep the labels' order.
func slotsOf(machine []int) (slot []int, k int, labels []int) {
	inRange := true
	for _, m := range machine {
		if m < Unscheduled || m >= len(machine) {
			inRange = false
			break
		}
	}
	if inRange {
		return machine, len(machine), nil
	}
	for _, m := range machine {
		if m != Unscheduled {
			labels = append(labels, m)
		}
	}
	slices.Sort(labels)
	labels = slices.Compact(labels)
	slot = make([]int, len(machine))
	for i, m := range machine {
		slot[i] = Unscheduled
		if m != Unscheduled {
			slot[i], _ = slices.BinarySearch(labels, m)
		}
	}
	return slot, len(labels), labels
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
