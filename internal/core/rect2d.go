package core

import (
	"fmt"
	"sort"

	"repro/internal/job"
	"repro/internal/rect"
)

// RectSchedule assigns two-dimensional jobs to machines. Machine[i] is the
// machine of RectInstance.Jobs[i] (2-D MinBusy schedules are total).
type RectSchedule struct {
	Instance job.RectInstance
	Machine  []int
}

// Cost returns the total busy area Σ_i span(J_i) over machines, the 2-D
// objective of Section 3.4.
func (s RectSchedule) Cost() int64 {
	groups := map[int][]rect.Rect{}
	for i, m := range s.Machine {
		groups[m] = append(groups[m], s.Instance.Jobs[i].Rect)
	}
	var total int64
	for _, rs := range groups {
		total += rect.UnionArea(rs)
	}
	return total
}

// Machines returns the number of machines used.
func (s RectSchedule) Machines() int {
	seen := map[int]bool{}
	for _, m := range s.Machine {
		seen[m] = true
	}
	return len(seen)
}

// Validate checks that every job is assigned and no machine exceeds
// capacity g at any point of the plane.
func (s RectSchedule) Validate() error {
	if len(s.Machine) != len(s.Instance.Jobs) {
		return fmt.Errorf("core: rect schedule covers %d jobs, instance has %d", len(s.Machine), len(s.Instance.Jobs))
	}
	groups := map[int][]rect.Rect{}
	for i, m := range s.Machine {
		if m < 0 {
			return fmt.Errorf("core: rect job %d unassigned", i)
		}
		groups[m] = append(groups[m], s.Instance.Jobs[i].Rect)
	}
	for m, rs := range groups {
		if c := rect.MaxConcurrency(rs); c > s.Instance.G {
			return fmt.Errorf("core: machine %d concurrency %d > g = %d", m, c, s.Instance.G)
		}
	}
	return nil
}

// FirstFit2D implements Algorithm 3: sort jobs by non-increasing len₂ and
// assign each to the first thread of the first machine with no
// intersection. Lemma 3.5 shows its approximation ratio on rectangles is
// between 6γ₁+3 and 6γ₁+4 (γ₁ the len₁ max/min ratio); the Figure 3
// adversarial family in internal/workload drives it to the lower bound.
func FirstFit2D(in job.RectInstance) RectSchedule {
	n := len(in.Jobs)
	s := RectSchedule{Instance: in, Machine: make([]int, n)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Jobs[order[a]].Rect.Len2() > in.Jobs[order[b]].Rect.Len2()
	})

	packer := ThreadPacker{G: in.G}
	for _, p := range order {
		s.Machine[p], _ = packer.Place(p, func(thread []int) bool {
			for _, q := range thread {
				if in.Jobs[q].Rect.Overlaps(in.Jobs[p].Rect) {
					return false
				}
			}
			return true
		})
	}
	return s
}

// DefaultBucketBase is the β the paper optimizes in Theorem 3.3, giving the
// min(g, 13.82·log min(γ₁,γ₂)+O(1)) ratio.
const DefaultBucketBase = 3.3

// BucketFirstFit implements Algorithm 4: partition jobs into buckets with
// len₁ ratio at most β, run FirstFit2D per bucket on fresh machines, and
// concatenate. With β = DefaultBucketBase this is the Theorem 3.3
// approximation algorithm. beta must be > 1 and every len₁ positive.
//
// The paper assumes γ₁ ≤ γ₂ w.l.o.g.; callers can transpose instances with
// TransposeRects to enforce it (BucketFirstFitAuto does so automatically).
func BucketFirstFit(in job.RectInstance, beta float64) (RectSchedule, error) {
	lengths := make([]int64, len(in.Jobs))
	for i, j := range in.Jobs {
		lengths[i] = j.Rect.Len1()
	}
	machine, err := BucketPack(lengths, beta, func(members []int) []int {
		sub := job.RectInstance{G: in.G, Jobs: make([]job.RectJob, len(members))}
		for k, p := range members {
			sub.Jobs[k] = in.Jobs[p]
		}
		return FirstFit2D(sub).Machine
	})
	if err != nil {
		return RectSchedule{}, fmt.Errorf("core: BucketFirstFit %w", err)
	}
	return RectSchedule{Instance: in, Machine: machine}, nil
}

// TransposeRects swaps the two dimensions of every job — used to enforce
// the paper's γ₁ ≤ γ₂ normalization before bucketing.
func TransposeRects(in job.RectInstance) job.RectInstance {
	out := job.RectInstance{G: in.G, Jobs: make([]job.RectJob, len(in.Jobs))}
	for i, j := range in.Jobs {
		out.Jobs[i] = job.RectJob{ID: j.ID, Rect: rect.Rect{D1: j.Rect.D2, D2: j.Rect.D1}}
	}
	return out
}

// BucketFirstFitAuto transposes the instance if needed so that bucketing
// happens on the dimension with the smaller γ (the paper's w.l.o.g.
// normalization), then runs BucketFirstFit with the optimized base.
func BucketFirstFitAuto(in job.RectInstance) (RectSchedule, error) {
	if len(in.Jobs) == 0 {
		return RectSchedule{Instance: in}, nil
	}
	g1 := rect.Gamma(in.Rects(), 1)
	g2 := rect.Gamma(in.Rects(), 2)
	if g1 <= g2 {
		return BucketFirstFit(in, DefaultBucketBase)
	}
	ts, err := BucketFirstFit(TransposeRects(in), DefaultBucketBase)
	if err != nil {
		return RectSchedule{}, err
	}
	return RectSchedule{Instance: in, Machine: ts.Machine}, nil
}

// NaivePerJob2D assigns each rectangle its own machine — the g-approximate
// baseline in two dimensions.
func NaivePerJob2D(in job.RectInstance) RectSchedule {
	s := RectSchedule{Instance: in, Machine: make([]int, len(in.Jobs))}
	for i := range s.Machine {
		s.Machine[i] = i
	}
	return s
}
