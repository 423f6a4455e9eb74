package core

import (
	"repro/internal/interval"
	"repro/internal/job"
)

// Loads indexes a schedule's jobs by machine for the single-job probes
// of local search, reoptimization repair, demand first-fit and
// GreedyThroughput. Both probes look only at the machine's jobs that
// overlap the probed job, clipped to its interval, so a probe costs
// O(overlap) instead of a sort of the whole machine. Fits is exact on a
// machine that is within capacity before the probe, which every machine
// of a valid schedule is, and which adding only jobs that Fits accepts
// keeps.
type Loads struct {
	in      job.Instance
	members [][]int // members[m] = positions of machine m's jobs, in insertion order
}

// NewLoads indexes the scheduled jobs of s on machines 0 through its
// highest machine, each machine's positions in increasing order.
func NewLoads(s Schedule) *Loads {
	l := &Loads{in: s.Instance}
	for p, m := range s.Machine {
		if m == Unscheduled {
			continue
		}
		for m >= len(l.members) {
			l.Open()
		}
		l.Add(m, p)
	}
	return l
}

// Machines returns the number of indexed machines.
func (l *Loads) Machines() int { return len(l.members) }

// Members returns the positions of machine m's jobs. The slice belongs
// to the index: copy it before moving jobs while ranging over it.
func (l *Loads) Members(m int) []int { return l.members[m] }

// Open adds an empty machine and returns its index.
func (l *Loads) Open() int {
	l.members = append(l.members, nil)
	return len(l.members) - 1
}

// Add puts job p on machine m.
func (l *Loads) Add(m, p int) { l.members[m] = append(l.members[m], p) }

// Remove takes job p off machine m, keeping the other jobs' order.
func (l *Loads) Remove(m, p int) {
	for k, q := range l.members[m] {
		if q == p {
			l.members[m] = append(l.members[m][:k], l.members[m][k+1:]...)
			return
		}
	}
}

// Marginal returns the busy time job p adds to machine m: the part of
// its interval no other job of m covers. For a job on m it is the busy
// time that removing the job frees.
func (l *Loads) Marginal(m, p int) int64 {
	iv := l.in.Jobs[p].Interval
	var clipped []interval.Interval
	for _, q := range l.members[m] {
		if q == p {
			continue
		}
		if ov := l.in.Jobs[q].Interval.Intersect(iv); !ov.Empty() {
			clipped = append(clipped, ov)
		}
	}
	return iv.Len() - interval.Span(clipped)
}

// Fits reports whether job p, not on machine m, can join it without the
// demand on m exceeding g. An overload must involve p, so only m's jobs
// that overlap p matter, and clipped to p's interval they keep their
// concurrency there.
func (l *Loads) Fits(m, p int) bool {
	j := l.in.Jobs[p]
	ivs := []interval.Interval{j.Interval}
	dems := []int64{j.Demand}
	for _, q := range l.members[m] {
		o := l.in.Jobs[q]
		if ov := o.Interval.Intersect(j.Interval); !ov.Empty() {
			ivs = append(ivs, ov)
			dems = append(dems, o.Demand)
		}
	}
	return interval.WeightedMaxConcurrency(ivs, dems) <= int64(l.in.G)
}
