package reopt_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/reopt"
	"repro/internal/workload"
)

// canonicalReference is Canonical as a stable sort of positions by the
// translated (start, end, weight, demand), the reference the order
// derived from ByStart must reproduce exactly: the fingerprint hashes
// the sequence, and cache entries map back through the permutation.
func canonicalReference(in job.Instance) ([]reopt.CanonJob, []int) {
	n := len(in.Jobs)
	jobs := make([]reopt.CanonJob, n)
	perm := make([]int, n)
	if n == 0 {
		return jobs, perm
	}
	origin := in.Jobs[0].Start()
	for _, j := range in.Jobs[1:] {
		origin = min(origin, j.Start())
	}
	for i, j := range in.Jobs {
		jobs[i] = reopt.CanonJob{Start: j.Start() - origin, End: j.End() - origin, Weight: j.Weight, Demand: j.Demand}
		perm[i] = i
	}
	less := func(c, o reopt.CanonJob) bool {
		if c.Start != o.Start {
			return c.Start < o.Start
		}
		if c.End != o.End {
			return c.End < o.End
		}
		if c.Weight != o.Weight {
			return c.Weight < o.Weight
		}
		return c.Demand < o.Demand
	}
	sort.SliceStable(perm, func(a, b int) bool { return less(jobs[perm[a]], jobs[perm[b]]) })
	sorted := make([]reopt.CanonJob, n)
	for k, p := range perm {
		sorted[k] = jobs[p]
	}
	return sorted, perm
}

func checkCanonical(t *testing.T, name string, in job.Instance) {
	t.Helper()
	wantJobs, wantPerm := canonicalReference(in)
	gotJobs, gotPerm := reopt.Canonical(in)
	if !slices.Equal(gotPerm, wantPerm) || !slices.Equal(gotJobs, wantJobs) {
		t.Fatalf("%s: Canonical perm %v, reference %v", name, gotPerm, wantPerm)
	}
	gotJobs, gotPerm = reopt.CanonicalByStart(in, job.ByStart(in.Jobs))
	if !slices.Equal(gotPerm, wantPerm) || !slices.Equal(gotJobs, wantJobs) {
		t.Fatalf("%s: CanonicalByStart perm %v, reference %v", name, gotPerm, wantPerm)
	}
}

// Long runs of identical jobs make an unstable sort, or a start order
// without the position tie-break, visible: insertion sort, which keeps
// short runs in order anyway, stops at 12 elements.
func TestCanonicalMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := r.Intn(80)
		horizon := 1 + r.Int63n(6)
		in := job.Instance{G: 3, Jobs: make([]job.Job, n)}
		for i := range in.Jobs {
			s := r.Int63n(horizon) - 2
			in.Jobs[i] = job.Job{
				ID:       r.Intn(1000),
				Interval: interval.Interval{Start: s, End: s + 1 + r.Int63n(3)},
				Weight:   1 + r.Int63n(3),
				Demand:   1 + r.Int63n(2),
			}
		}
		checkCanonical(t, fmt.Sprintf("trial %d", trial), in)
	}
	for _, fam := range workload.Names() {
		for seed := int64(1); seed <= 5; seed++ {
			in, err := workload.ByName(fam, seed, workload.Config{N: 300, G: 4, MaxTime: 100, MaxLen: 20})
			if err != nil {
				t.Fatal(err)
			}
			r.Shuffle(len(in.Jobs), func(a, b int) { in.Jobs[a], in.Jobs[b] = in.Jobs[b], in.Jobs[a] })
			checkCanonical(t, fmt.Sprintf("%s seed %d", fam, seed), in)
		}
	}
}

// Translating times more than 2^63 apart wraps, and the canonical order
// is no longer the start order; the derived permutation must still be
// the reference's.
func TestCanonicalWrappedTimes(t *testing.T) {
	in := job.Instance{G: 2, Jobs: []job.Job{
		{ID: 0, Interval: interval.Interval{Start: math.MaxInt64 - 10, End: math.MaxInt64}, Weight: 1, Demand: 1},
		{ID: 1, Interval: interval.Interval{Start: math.MinInt64, End: math.MinInt64 + 5}, Weight: 1, Demand: 1},
		{ID: 2, Interval: interval.Interval{Start: 0, End: 7}, Weight: 2, Demand: 1},
		{ID: 3, Interval: interval.Interval{Start: 0, End: 7}, Weight: 1, Demand: 2},
		{ID: 4, Interval: interval.Interval{Start: math.MaxInt64 - 10, End: math.MaxInt64}, Weight: 1, Demand: 1},
		{ID: 5, Interval: interval.Interval{Start: 1, End: math.MaxInt64}, Weight: 1, Demand: 1},
	}}
	checkCanonical(t, "wrapped", in)
}
