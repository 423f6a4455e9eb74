// Package demand implements the variable-capacity extension of Section 5
// (studied in depth by Khandekar et al. [16]): each job j carries a demand
// d_j ≤ g, and a machine may run any job set whose total demand never
// exceeds g at any time.
//
// The core model is the special case d_j = 1. The heuristics here reuse
// the paper's FirstFit shape; no approximation guarantee is claimed in the
// reproduced paper for general demands, so the test suite checks validity
// and the demand-weighted Observation 2.1 bounds instead.
package demand

import (
	"sort"

	"repro/internal/core"
	"repro/internal/job"
)

// ParallelismBound returns the demand-weighted parallelism lower bound
// ceil(Σ d_j·len_j / g): machine-time is consumed at rate ≥ total demand/g.
func ParallelismBound(in job.Instance) int64 {
	var weighted int64
	for _, j := range in.Jobs {
		weighted += j.Demand * j.Len()
	}
	g := int64(in.G)
	return (weighted + g - 1) / g
}

// LowerBound returns max(demand parallelism bound, span bound).
func LowerBound(in job.Instance) int64 {
	pb := ParallelismBound(in)
	if sp := in.Span(); sp > pb {
		return sp
	}
	return pb
}

// FirstFit places jobs in non-increasing length order on the first machine
// whose residual capacity admits the job over its whole interval. It
// generalizes the paper's FirstFit: with unit demands it coincides with
// core.FirstFit up to tie-breaking.
func FirstFit(in job.Instance) core.Schedule {
	order := make([]int, len(in.Jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Jobs[order[a]].Len() > in.Jobs[order[b]].Len()
	})
	return firstFitInOrder(in, order)
}

// FirstFitByDemand is FirstFit with jobs ordered by non-increasing demand
// first, then length — the "big rocks first" packing heuristic that
// empirically reduces fragmentation on heterogeneous demands.
func FirstFitByDemand(in job.Instance) core.Schedule {
	order := make([]int, len(in.Jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := in.Jobs[order[a]], in.Jobs[order[b]]
		if ja.Demand != jb.Demand {
			return ja.Demand > jb.Demand
		}
		return ja.Len() > jb.Len()
	})
	return firstFitInOrder(in, order)
}

// firstFitInOrder runs the first-fit placement loop over job positions in
// the given order.
func firstFitInOrder(in job.Instance, order []int) core.Schedule {
	s := core.NewSchedule(in)
	loads := core.NewLoads(s)
	for _, p := range order {
		m := 0
		for m < loads.Machines() && !loads.Fits(m, p) {
			m++
		}
		if m == loads.Machines() {
			loads.Open()
		}
		loads.Add(m, p)
		s.Assign(p, m)
	}
	return s
}
