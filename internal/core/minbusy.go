package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/matching"
	"repro/internal/setcover"
)

// NaivePerJob assigns every job to its own machine. By the length bound
// (Observation 2.1) any schedule — and in particular this one — is a
// g-approximation for MinBusy (Proposition 2.1). It is the baseline the
// saving sav(s) is measured against.
func NaivePerJob(in job.Instance) Schedule {
	s := NewSchedule(in)
	for i := range in.Jobs {
		s.Assign(i, i)
	}
	return s
}

// OneSidedGreedy solves one-sided clique instances of MinBusy optimally
// (Observation 3.1): sort the jobs by non-increasing length and fill
// machines with g jobs each in that order. It returns an error when the
// instance is not a one-sided clique.
func OneSidedGreedy(in job.Instance) (Schedule, error) {
	if igraph.OneSidedness(in.Jobs) == igraph.NotOneSided {
		return Schedule{}, fmt.Errorf("core: OneSidedGreedy requires a one-sided clique instance")
	}
	s := NewSchedule(in)
	for k, p := range job.ByLenDesc(in.Jobs) {
		s.Assign(p, k/in.G)
	}
	return s, nil
}

// CliqueMatching solves clique instances of MinBusy with g = 2 exactly
// (Lemma 3.1): a valid schedule pairs up jobs (at most two per machine, as
// all jobs overlap), the saving of a pair is its overlap length, so a
// maximum-weight matching on the overlap graph minimizes total cost.
//
// Both the O(n²) overlap-graph construction and the O(n³) blossom search
// check ctx and return ctx.Err() once it fires.
func CliqueMatching(ctx context.Context, in job.Instance) (Schedule, error) {
	if in.G != 2 {
		return Schedule{}, fmt.Errorf("core: CliqueMatching requires g = 2, got g = %d", in.G)
	}
	if !igraph.IsClique(in.Jobs) {
		return Schedule{}, fmt.Errorf("core: CliqueMatching requires a clique instance")
	}
	n := len(in.Jobs)
	var edges []matching.Edge
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return Schedule{}, ctx.Err()
		}
		for j := i + 1; j < n; j++ {
			if w := in.Jobs[i].Interval.OverlapLen(in.Jobs[j].Interval); w > 0 {
				edges = append(edges, matching.Edge{U: i, V: j, Weight: w})
			}
		}
	}
	mate, err := matching.Max(ctx, n, edges)
	if err != nil {
		return Schedule{}, err
	}
	s := NewSchedule(in)
	machine := 0
	//lint:ignore busylint/ctxloop single O(n) reconstruction pass after the cancellable matching
	for i := 0; i < n; i++ {
		if mate[i] > i {
			s.Assign(i, machine)
			s.Assign(mate[i], machine)
			machine++
		} else if mate[i] == Unscheduled {
			s.Assign(i, machine)
			machine++
		}
	}
	return s, nil
}

// MaxCliqueSetCoverJobs bounds the subset enumeration of CliqueSetCover:
// instances with more than this many candidate subsets are rejected. The
// default admits e.g. n = 60 at g = 3 or n = 30 at g = 4.
const MaxCliqueSetCoverSubsets = 5_000_000

// CliqueSetCover approximates clique instances of MinBusy for any fixed g
// within g·H_g/(H_g + g − 1) (Lemma 3.2). It enumerates all job subsets of
// size ≤ g and runs three schedules, returning the cheapest:
//
//  1. greedy partition on the paper's modified weights g·span(Q) − len(Q)
//     (the scaled excess over the parallelism bound), restricted to
//     disjoint candidate sets so the cover is a partition — the paper's
//     cover-to-schedule step silently assumes this, because the
//     modified-weight accounting charges every job's length exactly once;
//  2. greedy cover on plain span weights (monotone, so dropping duplicate
//     jobs from chosen sets never raises cost), giving the classical
//     cost ≤ H_g·cost* guarantee;
//  3. the naive per-job schedule realizing the length bound cost = g·PB.
//
// The paper combines inequalities (1) and (3) through a convex mix to get
// the g·H_g/(H_g+g−1) ratio; taking the minimum of the three schedules
// inherits that combination (min(a,b) ≤ ρa + (1−ρ)b).
//
// The subset enumeration and both greedy cover loops check ctx and return
// ctx.Err() once it fires, so a Solver deadline can abandon a
// multi-million-subset run mid-enumeration.
func CliqueSetCover(ctx context.Context, in job.Instance) (Schedule, error) {
	if !igraph.IsClique(in.Jobs) {
		return Schedule{}, fmt.Errorf("core: CliqueSetCover requires a clique instance")
	}
	n := len(in.Jobs)
	if n == 0 {
		return NewSchedule(in), nil
	}
	if c := setcover.Count(n, in.G); c > MaxCliqueSetCoverSubsets {
		return Schedule{}, fmt.Errorf("core: CliqueSetCover would enumerate %d subsets (max %d); reduce g or n", c, MaxCliqueSetCoverSubsets)
	}

	best := NaivePerJob(in)
	bestCost := best.Cost()

	// Enumerate the subset space once; both greedy variants reuse it.
	modified, plain, err := cliqueSubsetSets(ctx, in)
	if err != nil {
		return Schedule{}, err
	}
	if s, err := coverFromModified(ctx, in, modified); err == nil && s.Cost() < bestCost {
		best, bestCost = s, s.Cost()
	} else if ctx.Err() != nil {
		return Schedule{}, ctx.Err()
	}
	s, err := coverFromPlain(ctx, in, plain)
	if err != nil {
		return Schedule{}, err
	}
	if s.Cost() < bestCost {
		best = s
	}
	return best, nil
}

// cliqueSubsetSets enumerates all job subsets of size ≤ g with both weight
// functions used by the set-cover algorithms, abandoning the enumeration
// with ctx.Err() once the context fires.
func cliqueSubsetSets(ctx context.Context, in job.Instance) (modified, plain []setcover.Set, err error) {
	g := int64(in.G)
	err = setcover.EnumerateSubsets(ctx, len(in.Jobs), in.G, func(subset []int) {
		var length int64
		// All jobs share a common time, so the union of any subset is a
		// single interval [min start, max end).
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		//lint:ignore busylint/ctxloop subset holds at most g elements; EnumerateSubsets observes ctx between subsets
		for _, p := range subset {
			iv := in.Jobs[p].Interval
			length += iv.Len()
			if iv.Start < lo {
				lo = iv.Start
			}
			if iv.End > hi {
				hi = iv.End
			}
		}
		span := hi - lo
		elems := append([]int(nil), subset...)
		modified = append(modified, setcover.Set{Elements: elems, Weight: g*span - length})
		plain = append(plain, setcover.Set{Elements: elems, Weight: span})
	})
	if err != nil {
		return nil, nil, err
	}
	return modified, plain, nil
}

// CliqueSetCoverModified is the modified-weight variant alone (greedy
// partition over weights g·span(Q)−len(Q)) — exposed for the E14 ablation.
// It observes ctx as CliqueSetCover does.
func CliqueSetCoverModified(ctx context.Context, in job.Instance) (Schedule, error) {
	if !igraph.IsClique(in.Jobs) {
		return Schedule{}, fmt.Errorf("core: CliqueSetCoverModified requires a clique instance")
	}
	if len(in.Jobs) == 0 {
		return NewSchedule(in), nil
	}
	modified, _, err := cliqueSubsetSets(ctx, in)
	if err != nil {
		return Schedule{}, err
	}
	return coverFromModified(ctx, in, modified)
}

// coverFromModified runs the greedy-partition step over precomputed
// modified-weight sets.
func coverFromModified(ctx context.Context, in job.Instance, modified []setcover.Set) (Schedule, error) {
	n := len(in.Jobs)
	chosen, err := setcover.GreedyPartition(ctx, n, modified)
	if err != nil {
		if ctx.Err() != nil {
			return Schedule{}, ctx.Err()
		}
		return Schedule{}, fmt.Errorf("core: CliqueSetCoverModified: %v", err)
	}
	return scheduleFromGroups(in, setcover.Partition(n, modified, chosen)), nil
}

// CliqueSetCoverPlain is the plain-span variant alone (classical greedy
// cover, H_g guarantee) — exposed for the E14 ablation. It observes ctx
// as CliqueSetCover does.
func CliqueSetCoverPlain(ctx context.Context, in job.Instance) (Schedule, error) {
	if !igraph.IsClique(in.Jobs) {
		return Schedule{}, fmt.Errorf("core: CliqueSetCoverPlain requires a clique instance")
	}
	if len(in.Jobs) == 0 {
		return NewSchedule(in), nil
	}
	_, plain, err := cliqueSubsetSets(ctx, in)
	if err != nil {
		return Schedule{}, err
	}
	return coverFromPlain(ctx, in, plain)
}

// coverFromPlain runs the classical greedy cover over precomputed
// span-weight sets.
func coverFromPlain(ctx context.Context, in job.Instance, plain []setcover.Set) (Schedule, error) {
	n := len(in.Jobs)
	chosen, err := setcover.Greedy(ctx, n, plain)
	if err != nil {
		if ctx.Err() != nil {
			return Schedule{}, ctx.Err()
		}
		return Schedule{}, fmt.Errorf("core: CliqueSetCoverPlain: %v", err)
	}
	return scheduleFromGroups(in, setcover.Partition(n, plain, chosen)), nil
}

// SingleCut is the ablation baseline for BestCut: only the phase-g cut
// (consecutive groups of g from the first job) rather than the best of g
// offsets. Theorem 3.1's averaging argument shows why trying all offsets
// matters; E14 measures the gap.
func SingleCut(in job.Instance) (Schedule, error) {
	if !igraph.IsProper(in.Jobs) {
		return Schedule{}, fmt.Errorf("core: SingleCut requires a proper instance")
	}
	order := job.ByStart(in.Jobs)
	s := NewSchedule(in)
	for k, p := range order {
		s.Assign(p, k/in.G)
	}
	return s, nil
}

// BestCut implements Algorithm 1 of the paper: a (2 − 1/g)-approximation
// for proper instances of MinBusy (Theorem 3.1). It tries the g "phase
// offsets" of cutting the start-sorted job sequence into consecutive groups
// of g, and returns the cheapest resulting schedule.
//
// BestCut does not require connectivity: the cut-cost analysis of Theorem
// 3.1 uses only the span bound, which holds per component, and the
// schedule produced is valid on any proper instance. It returns an error
// when the instance is not proper.
func BestCut(in job.Instance) (Schedule, error) {
	order := job.ByStart(in.Jobs)
	if !igraph.IsProperByStart(in.Jobs, order) {
		return Schedule{}, fmt.Errorf("core: BestCut requires a proper instance")
	}
	n := len(in.Jobs)
	if n == 0 {
		return NewSchedule(in), nil
	}

	// Cut i puts order[0..i) on the first machine and each next g jobs on
	// one more. A machine's jobs are a run of the start order, so its
	// busy time is the span of that run, and each cut is priced in one
	// pass; only the cheapest (the first, on ties) becomes a schedule.
	cutCost := func(i int) int64 {
		c := job.SpanByStart(in.Jobs, order[:min(i, n)])
		for lo := i; lo < n; lo += in.G {
			c += job.SpanByStart(in.Jobs, order[lo:min(lo+in.G, n)])
		}
		return c
	}
	best, bestCost := 1, cutCost(1)
	for i := 2; i <= in.G; i++ {
		if c := cutCost(i); c < bestCost {
			best, bestCost = i, c
		}
	}
	s := NewSchedule(in)
	for k, p := range order {
		s.Assign(p, (k+in.G-best)/in.G)
	}
	return s, nil
}

// FindBestConsecutive solves proper clique instances of MinBusy optimally
// in O(n·g) time (Theorem 3.2, Algorithm 2). By Lemma 3.3 an optimal
// schedule assigns consecutive jobs (in start order) to each machine, so a
// one-dimensional DP over cut positions suffices: dp[i] is the optimal
// cost of the first i jobs, and a machine holding jobs (i−j, i] costs
// c_i − s_{i−j+1} (the union of consecutive proper clique jobs is one
// interval).
func FindBestConsecutive(in job.Instance) (Schedule, error) {
	if !igraph.IsProperClique(in.Jobs) {
		return Schedule{}, fmt.Errorf("core: FindBestConsecutive requires a proper clique instance")
	}
	n := len(in.Jobs)
	if n == 0 {
		return NewSchedule(in), nil
	}
	order := job.ByStart(in.Jobs)
	start := func(k int) int64 { return in.Jobs[order[k]].Start() }
	end := func(k int) int64 { return in.Jobs[order[k]].End() }

	dp := make([]int64, n+1)
	cut := make([]int, n+1)
	for i := 1; i <= n; i++ {
		dp[i] = math.MaxInt64
		for j := 1; j <= in.G && j <= i; j++ {
			c := dp[i-j] + end(i-1) - start(i-j)
			if c < dp[i] {
				dp[i] = c
				cut[i] = j
			}
		}
	}

	s := NewSchedule(in)
	machine := 0
	for i := n; i > 0; {
		j := cut[i]
		for k := i - j; k < i; k++ {
			s.Assign(order[k], machine)
		}
		machine++
		i -= j
	}
	return s, nil
}

// MergeComponents merges per-component schedules produced on the pieces
// of igraph.SplitComponents back onto the original instance: component
// i's machines are renumbered onto a range disjoint from components
// 0..i−1, and the combined run is reported as "components:" plus the
// sorted distinct component algorithm names. subs[i] and names[i] must
// be the schedule and algorithm name obtained on comps[i]. It finds the
// components' jobs in the instance by ID, into one array sliced per
// component, then merges as MergeComponentsAt.
func MergeComponents(in job.Instance, comps []job.Instance, subs []Schedule, names []string) (Schedule, string) {
	posByID := make(map[int]int, len(in.Jobs))
	for i, j := range in.Jobs {
		posByID[j.ID] = i
	}
	total := 0
	for _, c := range comps {
		total += len(c.Jobs)
	}
	all := make([]int, 0, total)
	positions := make([][]int, len(comps))
	for ci, c := range comps {
		lo := len(all)
		for _, j := range c.Jobs {
			all = append(all, posByID[j.ID])
		}
		positions[ci] = all[lo:len(all):len(all)]
	}
	return MergeComponentsAt(in, positions, subs, names)
}

// MergeComponentsAt is MergeComponents for a caller that holds the
// positions igraph.SplitComponentsByStart returns: positions[i][k] is
// the position in in of component i's job k.
func MergeComponentsAt(in job.Instance, positions [][]int, subs []Schedule, names []string) (Schedule, string) {
	s := NewSchedule(in)
	machineBase := 0
	distinct := map[string]bool{}
	for ci, sub := range subs {
		distinct[names[ci]] = true
		maxM := -1
		for k, m := range sub.Machine {
			if m == Unscheduled {
				continue
			}
			s.Assign(positions[ci][k], machineBase+m)
			if m > maxM {
				maxM = m
			}
		}
		machineBase += maxM + 1
	}
	parts := make([]string, 0, len(distinct))
	for name := range distinct {
		parts = append(parts, name)
	}
	sort.Strings(parts)
	return s, "components:" + strings.Join(parts, "+")
}
