package core

import (
	"repro/internal/itree"
	"repro/internal/job"
)

// FirstFit is the 1-D first-fit algorithm of Flammini et al. [13], the
// prior-work baseline the paper improves upon: sort jobs by non-increasing
// length and place each on the first thread of the first machine where it
// fits. It is a 4-approximation for general instances and a
// 2-approximation for proper and for clique instances [13]. Each machine
// thread is an interval treap (internal/itree), so an overlap check is an
// O(log n) query rather than a scan of the thread; the test suite checks
// that the assignments equal those of the linear-scan reference.
func FirstFit(in job.Instance) Schedule {
	s := NewSchedule(in)
	var machines [][]*itree.Set

	for _, p := range job.ByLenDesc(in.Jobs) {
		iv := in.Jobs[p].Interval
		placed := false
		for m := 0; m < len(machines) && !placed; m++ {
			for t := 0; t < len(machines[m]) && !placed; t++ {
				if machines[m][t].Insert(iv) {
					s.Assign(p, m)
					placed = true
				}
			}
			if !placed && len(machines[m]) < in.G {
				th := &itree.Set{}
				th.Insert(iv)
				machines[m] = append(machines[m], th)
				s.Assign(p, m)
				placed = true
			}
		}
		if !placed {
			th := &itree.Set{}
			th.Insert(iv)
			machines = append(machines, []*itree.Set{th})
			s.Assign(p, len(machines)-1)
		}
	}
	return s
}
