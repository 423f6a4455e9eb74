// Package ring implements the Section 5 extension of Theorem 3.3 to ring
// topologies: jobs are communication requests on a ring optical network,
// each occupying an arc of the ring for a time interval — a rectangle on a
// cylinder. FirstFit and BucketFirstFit carry over because Lemma 3.4's
// bounding-rectangle argument is local and the span/parallelism bounds are
// topology-independent.
//
// Arcs wrap modulo the ring circumference C. Internally a wrapped arc is
// unrolled into at most two plain rectangles over [0, C), reusing the 1-D
// and 2-D measure machinery.
package ring

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rect"
)

// Arc is a directed arc on a ring of circumference C, starting at Start
// (0 ≤ Start < C) and extending clockwise for Length (1 ≤ Length ≤ C).
type Arc struct {
	Start  int64
	Length int64
}

// Job occupies an arc of the ring during a time interval [TStart, TEnd).
type Job struct {
	ID     int
	Arc    Arc
	TStart int64
	TEnd   int64
}

// Instance is a ring-scheduling input: C is the ring circumference, G the
// grooming factor.
type Instance struct {
	C    int64
	G    int
	Jobs []Job
}

// Validate reports the first structural problem.
func (in Instance) Validate() error {
	if in.C < 1 {
		return fmt.Errorf("ring: circumference %d < 1", in.C)
	}
	if in.G < 1 {
		return fmt.Errorf("ring: grooming factor %d < 1", in.G)
	}
	for i, j := range in.Jobs {
		if j.Arc.Start < 0 || j.Arc.Start >= in.C {
			return fmt.Errorf("ring: job %d arc start %d outside [0,%d)", i, j.Arc.Start, in.C)
		}
		if j.Arc.Length < 1 || j.Arc.Length > in.C {
			return fmt.Errorf("ring: job %d arc length %d outside [1,%d]", i, j.Arc.Length, in.C)
		}
		if j.TEnd <= j.TStart {
			return fmt.Errorf("ring: job %d has empty time interval", i)
		}
	}
	return nil
}

// unroll converts a job into 1 or 2 plain rectangles over the cut-open
// ring: dimension 1 is ring position in [0, C), dimension 2 is time.
func (in Instance) unroll(j Job) []rect.Rect {
	end := j.Arc.Start + j.Arc.Length
	if end <= in.C {
		return []rect.Rect{rect.New(j.Arc.Start, end, j.TStart, j.TEnd)}
	}
	return []rect.Rect{
		rect.New(j.Arc.Start, in.C, j.TStart, j.TEnd),
		rect.New(0, end-in.C, j.TStart, j.TEnd),
	}
}

// Overlaps reports whether two jobs share a (ring-position, time) point of
// positive measure.
func (in Instance) Overlaps(a, b Job) bool {
	for _, ra := range in.unroll(a) {
		for _, rb := range in.unroll(b) {
			if ra.Overlaps(rb) {
				return true
			}
		}
	}
	return false
}

// Schedule assigns ring jobs to machines (regenerator sets).
type Schedule struct {
	Instance Instance
	Machine  []int
}

// Cost returns the total busy cylinder area over machines.
func (s Schedule) Cost() int64 {
	groups := map[int][]rect.Rect{}
	for i, m := range s.Machine {
		groups[m] = append(groups[m], s.Instance.unroll(s.Instance.Jobs[i])...)
	}
	var total int64
	for _, rs := range groups {
		total += rect.UnionArea(rs)
	}
	return total
}

// Machines returns the number of machines used.
func (s Schedule) Machines() int {
	seen := map[int]bool{}
	for _, m := range s.Machine {
		seen[m] = true
	}
	return len(seen)
}

// Validate checks capacity: no machine may carry more than G overlapping
// jobs at any (position, time) point. Of several overloaded machines it
// reports the lowest-numbered, so the same schedule always gives the
// same error.
func (s Schedule) Validate() error {
	if len(s.Machine) != len(s.Instance.Jobs) {
		return fmt.Errorf("ring: schedule covers %d jobs, instance has %d", len(s.Machine), len(s.Instance.Jobs))
	}
	groups := map[int][]int{}
	for i, m := range s.Machine {
		if m < 0 {
			return fmt.Errorf("ring: job %d unassigned", i)
		}
		groups[m] = append(groups[m], i)
	}
	bad, badLoad := -1, 0
	for m, members := range groups {
		if bad >= 0 && m > bad {
			continue
		}
		var rs []rect.Rect
		for _, i := range members {
			rs = append(rs, s.Instance.unroll(s.Instance.Jobs[i])...)
		}
		// Unrolling splits single jobs in two, but the two pieces never
		// overlap each other, so rectangle concurrency equals job
		// concurrency.
		if c := rect.MaxConcurrency(rs); c > s.Instance.G {
			bad, badLoad = m, c
		}
	}
	if bad >= 0 {
		return fmt.Errorf("ring: machine %d concurrency %d > g = %d", bad, badLoad, s.Instance.G)
	}
	return nil
}

// TotalArea returns the 2-D length bound Σ arc·duration.
func (in Instance) TotalArea() int64 {
	var total int64
	for _, j := range in.Jobs {
		total += j.Arc.Length * (j.TEnd - j.TStart)
	}
	return total
}

// SpanArea returns the measure of the union of all jobs on the cylinder.
func (in Instance) SpanArea() int64 {
	var rs []rect.Rect
	for _, j := range in.Jobs {
		rs = append(rs, in.unroll(j)...)
	}
	return rect.UnionArea(rs)
}

// LowerBound returns max(ceil(area/g), span area) — Observation 2.1 on the
// cylinder.
func (in Instance) LowerBound() int64 {
	g := int64(in.G)
	pb := (in.TotalArea() + g - 1) / g
	if sp := in.SpanArea(); sp > pb {
		return sp
	}
	return pb
}

// FirstFit runs Algorithm 3 on the ring: jobs sorted by non-increasing
// time length, first thread of first machine with no cylinder overlap.
func FirstFit(in Instance) Schedule {
	n := len(in.Jobs)
	s := Schedule{Instance: in, Machine: make([]int, n)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da := in.Jobs[order[a]].TEnd - in.Jobs[order[a]].TStart
		db := in.Jobs[order[b]].TEnd - in.Jobs[order[b]].TStart
		return da > db
	})

	var machines [][][]int
	fits := func(thread []int, p int) bool {
		for _, q := range thread {
			if in.Overlaps(in.Jobs[q], in.Jobs[p]) {
				return false
			}
		}
		return true
	}
	for _, p := range order {
		placed := false
		for m := 0; m < len(machines) && !placed; m++ {
			for t := 0; t < len(machines[m]) && !placed; t++ {
				if fits(machines[m][t], p) {
					machines[m][t] = append(machines[m][t], p)
					s.Machine[p] = m
					placed = true
				}
			}
			if !placed && len(machines[m]) < in.G {
				machines[m] = append(machines[m], []int{p})
				s.Machine[p] = m
				placed = true
			}
		}
		if !placed {
			machines = append(machines, [][]int{{p}})
			s.Machine[p] = len(machines) - 1
		}
	}
	return s
}

// BucketFirstFit buckets jobs by arc length with ratio ≤ beta per bucket
// and runs FirstFit per bucket on fresh machines — Theorem 3.3 adapted to
// the ring (the lemma it relies on is topology-independent, see Section 5).
func BucketFirstFit(in Instance, beta float64) (Schedule, error) {
	if beta <= 1 {
		return Schedule{}, fmt.Errorf("ring: BucketFirstFit needs beta > 1, got %v", beta)
	}
	n := len(in.Jobs)
	s := Schedule{Instance: in, Machine: make([]int, n)}
	if n == 0 {
		return s, nil
	}
	minLen := int64(math.MaxInt64)
	for _, j := range in.Jobs {
		if j.Arc.Length < minLen {
			minLen = j.Arc.Length
		}
	}
	buckets := map[int][]int{}
	for i, j := range in.Jobs {
		ratio := float64(j.Arc.Length) / float64(minLen)
		b := 0
		if ratio > 1 {
			b = int(math.Ceil(math.Log(ratio) / math.Log(beta)))
			if math.Pow(beta, float64(b-1)) >= ratio-1e-12 && b > 0 {
				b--
			}
		}
		buckets[b] = append(buckets[b], i)
	}
	keys := make([]int, 0, len(buckets))
	for b := range buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	base := 0
	for _, b := range keys {
		sub := Instance{C: in.C, G: in.G}
		for _, p := range buckets[b] {
			sub.Jobs = append(sub.Jobs, in.Jobs[p])
		}
		subS := FirstFit(sub)
		maxM := 0
		for k, p := range buckets[b] {
			m := subS.Machine[k]
			s.Machine[p] = base + m
			if m > maxM {
				maxM = m
			}
		}
		base += maxM + 1
	}
	return s, nil
}
