package reopt

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/trace"
)

// Repaired is the outcome of a warm-started delta solve.
type Repaired struct {
	// Schedule is a valid total schedule of the submitted instance.
	Schedule core.Schedule
	// Transition counts the jobs carried over from the base whose
	// machine changed — the reoptimization transition cost of
	// arXiv 1509.01630 (added jobs are new placements, not transitions).
	Transition int
	// Added and Removed are the delta sizes: jobs inserted into and
	// evicted from the incumbent assignment.
	Added, Removed int
}

// Repair warm-starts from a cached incumbent: jobs common to the base
// and the submitted instance (matched by canonical form) keep their
// incumbent machines, removed jobs are evicted, added jobs are inserted
// where they increase busy time least, and a local improvement pass
// around the affected machines re-places jobs while the transition
// budget allows. maxTransition ≤ 0 means unbudgeted; otherwise at most
// that many common jobs are reassigned. canonJobs and perm must be
// Canonical(in).
//
// The returned schedule is always a valid total schedule of in — the
// repair never trades feasibility for transition cost — so a Result
// built from it certifies against the submitted instance.
func Repair(ctx context.Context, base Entry, in job.Instance, canonJobs []CanonJob, perm []int, maxTransition int) (Repaired, error) {
	_, sp := trace.Start(ctx, "reopt.repair")
	defer sp.End()
	if base.G != in.G {
		return Repaired{}, fmt.Errorf("reopt: base capacity g = %d, submitted g = %d", base.G, in.G)
	}
	if len(base.Machine) != len(base.Jobs) {
		return Repaired{}, fmt.Errorf("reopt: base entry covers %d of %d jobs", len(base.Machine), len(base.Jobs))
	}

	// Merge the two sorted canonical sequences: equal tuples pair up
	// (common jobs), base-only tuples are evicted, submitted-only tuples
	// are the insertions.
	sch := core.NewSchedule(in)
	incumbent := make([]int, len(in.Jobs)) // incumbent machine per instance position, or -1
	for i := range incumbent {
		incumbent[i] = -1
	}
	// The submission's canonical origin, for translating base-only
	// (evicted) canonical tuples back into the submission's time frame.
	var origin int64
	for i, j := range in.Jobs {
		if i == 0 || j.Start() < origin {
			origin = j.Start()
		}
	}

	var added []int                  // canonical positions of inserted jobs
	var deltaIvs []interval.Interval // the delta's footprint in submission time
	removed := 0
	bi, ni := 0, 0
	for bi < len(base.Jobs) && ni < len(canonJobs) {
		switch {
		case base.Jobs[bi] == canonJobs[ni]:
			m := base.Machine[bi]
			if m < 0 {
				return Repaired{}, fmt.Errorf("reopt: base entry has unscheduled job at canonical position %d", bi)
			}
			pos := perm[ni]
			sch.Assign(pos, m)
			incumbent[pos] = m
			bi++
			ni++
		case base.Jobs[bi].less(canonJobs[ni]):
			removed++
			deltaIvs = append(deltaIvs, interval.New(base.Jobs[bi].Start+origin, base.Jobs[bi].End+origin))
			bi++
		default:
			added = append(added, ni)
			deltaIvs = append(deltaIvs, in.Jobs[perm[ni]].Interval)
			ni++
		}
	}
	for ; bi < len(base.Jobs); bi++ {
		removed++
		deltaIvs = append(deltaIvs, interval.New(base.Jobs[bi].Start+origin, base.Jobs[bi].End+origin))
	}
	for ; ni < len(canonJobs); ni++ {
		added = append(added, ni)
		deltaIvs = append(deltaIvs, in.Jobs[perm[ni]].Interval)
	}
	deltaIvs = interval.Union(deltaIvs)
	inDelta := func(iv interval.Interval) bool {
		for _, d := range deltaIvs {
			if iv.Overlaps(d) {
				return true
			}
		}
		return false
	}

	// Machine state for capacity checks and marginal-cost scans, indexed
	// by (still-compact-enough) incumbent labels.
	loads := core.NewLoads(sch)

	// Best-fit insertion: each added job lands where it adds the least
	// busy time (ties to the lowest machine), or on a fresh machine when
	// that is strictly cheaper or nothing fits.
	affected := map[int]bool{}
	for _, ni := range added {
		pos := perm[ni]
		bestM, bestDelta := -1, in.Jobs[pos].Len()
		for m := 0; m < loads.Machines(); m++ {
			delta := loads.Marginal(m, pos)
			if delta > bestDelta || (delta == bestDelta && bestM != -1) {
				continue // not cheaper than the best so far (or a fresh machine)
			}
			if !loads.Fits(m, pos) {
				continue
			}
			bestM, bestDelta = m, delta
			if bestDelta == 0 {
				break // fully covered: no cheaper placement exists
			}
		}
		if bestM == -1 {
			bestM = loads.Open()
		}
		loads.Add(bestM, pos)
		sch.Assign(pos, bestM)
		affected[bestM] = true
	}

	// Local improvement around the delta: only jobs on machines the
	// delta touched AND overlapping the delta's own time footprint are
	// candidates to move — a job far from any inserted or evicted
	// interval cannot profit from the delta, so the pass is bounded by
	// the delta's size, not the machine's population. Moving a common
	// job off its incumbent consumes transition budget; added jobs move
	// free.
	budget := maxTransition
	if budget <= 0 {
		budget = len(in.Jobs) + 1
	}
	moved := map[int]bool{} // instance positions charged as transitions
	// Deterministic iteration: affected is keyed by compact machine ids.
	for m := 0; m < loads.Machines(); m++ {
		if !affected[m] {
			continue
		}
		for _, pos := range append([]int(nil), loads.Members(m)...) {
			if !inDelta(in.Jobs[pos].Interval) {
				continue
			}
			from := sch.Machine[pos]
			if from != m {
				continue // already relocated this pass
			}
			chargeable := incumbent[pos] == from && incumbent[pos] != -1
			if chargeable && len(moved) >= budget {
				continue
			}
			release := loads.Marginal(from, pos)
			if release <= 0 {
				// The job's interval is covered by its machine-mates:
				// evicting it frees nothing, so no move can profit.
				continue
			}
			bestTo, bestDelta := -1, int64(0)
			for to := 0; to < loads.Machines(); to++ {
				if to == from {
					continue
				}
				delta := loads.Marginal(to, pos) - release
				if delta >= 0 || (bestTo != -1 && delta >= bestDelta) {
					continue
				}
				if !loads.Fits(to, pos) {
					continue
				}
				bestTo, bestDelta = to, delta
			}
			if bestTo == -1 {
				continue
			}
			loads.Remove(from, pos)
			loads.Add(bestTo, pos)
			sch.Assign(pos, bestTo)
			if incumbent[pos] != -1 && incumbent[pos] != bestTo {
				moved[pos] = true
			} else {
				delete(moved, pos)
			}
		}
	}

	transition := 0
	for pos, m := range sch.Machine {
		if incumbent[pos] != -1 && incumbent[pos] != m {
			transition++
		}
	}
	return Repaired{
		Schedule:   sch.CompactMachines(),
		Transition: transition,
		Added:      len(added),
		Removed:    removed,
	}, nil
}

// CanonicalAssignment converts a schedule on the submitted instance into
// the canonical-position machine vector an Entry stores: compact labels,
// canonical order. It requires a total schedule.
func CanonicalAssignment(sch core.Schedule, perm []int) ([]int, error) {
	compact := sch.CompactMachines()
	out := make([]int, len(perm))
	for k, pos := range perm {
		if pos < 0 || pos >= len(compact.Machine) {
			return nil, fmt.Errorf("reopt: permutation position %d out of range", pos)
		}
		m := compact.Machine[pos]
		if m == core.Unscheduled {
			return nil, fmt.Errorf("reopt: cannot cache a partial schedule (position %d unscheduled)", pos)
		}
		out[k] = m
	}
	return out, nil
}

// RemapAssignment serves a cached entry for a submission with the same
// canonical form: the job at the submission's canonical position k takes
// the cached machine of canonical position k. Equal canonical tuples are
// interchangeable, so the result is a valid schedule of in with the
// entry's cost.
func RemapAssignment(e Entry, in job.Instance, perm []int) (core.Schedule, error) {
	if len(e.Machine) != len(perm) || len(perm) != len(in.Jobs) {
		return core.Schedule{}, fmt.Errorf("reopt: entry covers %d jobs, submission has %d", len(e.Machine), len(in.Jobs))
	}
	sch := core.NewSchedule(in)
	for k, pos := range perm {
		if e.Machine[k] < 0 {
			return core.Schedule{}, fmt.Errorf("reopt: cached entry has unscheduled canonical position %d", k)
		}
		sch.Assign(pos, e.Machine[k])
	}
	return sch, nil
}
