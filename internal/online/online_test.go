package online

import (
	"fmt"
	"testing"

	"repro/internal/exact"
	"repro/internal/job"
	"repro/internal/workload"
)

func strategies() []Strategy {
	return []Strategy{Naive(), FirstFit(), Buckets()}
}

// replayOrFatal runs a replay and fails the test on any harness error.
func replayOrFatal(t *testing.T, in job.Instance, st Strategy) Result {
	t.Helper()
	res, err := Replay(in, st)
	if err != nil {
		t.Fatalf("%s: %v", st.Name(), err)
	}
	return res
}

func TestNaiveOpensOneMachinePerJob(t *testing.T) {
	in := workload.Arrivals(1, workload.Config{N: 20, G: 3, MaxTime: 100, MaxLen: 30})
	res := replayOrFatal(t, in, Naive())
	if res.MachinesOpened != len(in.Jobs) {
		t.Errorf("naive opened %d machines for %d jobs", res.MachinesOpened, len(in.Jobs))
	}
	if res.Cost != in.TotalLen() {
		t.Errorf("naive cost %d, want len(J) = %d", res.Cost, in.TotalLen())
	}
}

func TestFirstFitPacksOverlappingArrivals(t *testing.T) {
	// Three pairwise-overlapping unit-start jobs, g = 2: the first two share
	// machine 0 on separate threads, the third needs machine 1.
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{1, 11}, [2]int64{2, 12})
	res := replayOrFatal(t, in, FirstFit())
	m := res.Schedule.Machine
	if m[0] != m[1] || m[0] == m[2] {
		t.Errorf("assignments %v, want jobs 0,1 together and job 2 alone", m)
	}
	if res.MachinesOpened != 2 || res.PeakOpen != 2 {
		t.Errorf("opened %d peak %d, want 2 and 2", res.MachinesOpened, res.PeakOpen)
	}
}

func TestFirstFitReusesFreedThread(t *testing.T) {
	// Job 2 starts after job 0 ends; the machine is still open (job 1 runs
	// long), so FirstFit reuses the freed thread rather than opening.
	in := job.NewInstance(2, [2]int64{0, 4}, [2]int64{0, 20}, [2]int64{5, 9})
	res := replayOrFatal(t, in, FirstFit())
	for i := 1; i < len(res.Schedule.Machine); i++ {
		if res.Schedule.Machine[i] != res.Schedule.Machine[0] {
			t.Fatalf("assignments %v, want all on one machine", res.Schedule.Machine)
		}
	}
	if res.MachinesOpened != 1 {
		t.Errorf("opened %d machines, want 1", res.MachinesOpened)
	}
}

func TestFirstFitDoesNotReviveClosedMachine(t *testing.T) {
	// Job 1 arrives after job 0's machine has gone idle; reopening it would
	// start a new busy period, so the harness must offer no open machine.
	in := job.NewInstance(2, [2]int64{0, 5}, [2]int64{5, 10})
	res := replayOrFatal(t, in, FirstFit())
	if res.Schedule.Machine[0] == res.Schedule.Machine[1] {
		t.Errorf("assignments %v, want distinct machines", res.Schedule.Machine)
	}
	if res.MachinesOpened != 2 || res.PeakOpen != 1 {
		t.Errorf("opened %d peak %d, want 2 and 1", res.MachinesOpened, res.PeakOpen)
	}
}

func TestBucketsSeparatesLengthClasses(t *testing.T) {
	// A short and a long job overlap; Buckets must not mix them even though
	// FirstFit would.
	in := job.NewInstance(2, [2]int64{0, 2}, [2]int64{0, 100})
	res := replayOrFatal(t, in, Buckets())
	if res.Schedule.Machine[0] == res.Schedule.Machine[1] {
		t.Errorf("buckets mixed length classes: %v", res.Schedule.Machine)
	}
	ff := replayOrFatal(t, in, FirstFit())
	if ff.Schedule.Machine[0] != ff.Schedule.Machine[1] {
		t.Errorf("firstfit split what it should pack: %v", ff.Schedule.Machine)
	}
}

func TestBucketsMachinesAreLengthHomogeneous(t *testing.T) {
	in := workload.Arrivals(7, workload.Config{N: 60, G: 3, MaxTime: 300, MaxLen: 64})
	res := replayOrFatal(t, in, Buckets())
	for m, positions := range res.Schedule.MachineJobs() {
		class := lenClass(in.Jobs[positions[0]].Len())
		for _, p := range positions[1:] {
			if got := lenClass(in.Jobs[p].Len()); got != class {
				t.Fatalf("machine %d mixes buckets %d and %d", m, class, got)
			}
		}
	}
}

func TestLenClass(t *testing.T) {
	cases := []struct {
		l    int64
		want int64
	}{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1 << 20, 20}}
	for _, c := range cases {
		if got := lenClass(c.l); got != c.want {
			t.Errorf("lenClass(%d) = %d, want %d", c.l, got, c.want)
		}
	}
}

// TestReplayProperty checks the core invariants on every strategy across
// workload families: the schedule validates, every job is assigned, and
// the cost sits between the Observation 2.1 lower bound and len(J).
func TestReplayProperty(t *testing.T) {
	type family struct {
		name string
		gen  func(seed int64, c workload.Config) job.Instance
	}
	families := []family{
		{"general", workload.General},
		{"clique", workload.Clique},
		{"proper", workload.Proper},
		{"proper-clique", workload.ProperClique},
		{"arrivals", workload.Arrivals},
		{"bursty", workload.BurstyArrivals},
		{"cloud", workload.Cloud},
	}
	for _, f := range families {
		for seed := int64(1); seed <= 5; seed++ {
			in := f.gen(seed, workload.Config{N: 40, G: 3, MaxTime: 200, MaxLen: 40})
			for _, st := range strategies() {
				res := replayOrFatal(t, in, st)
				if err := res.Schedule.Validate(); err != nil {
					t.Fatalf("%s/%s seed %d: %v", f.name, st.Name(), seed, err)
				}
				if got := res.Schedule.Throughput(); got != len(in.Jobs) {
					t.Fatalf("%s/%s seed %d: scheduled %d/%d", f.name, st.Name(), seed, got, len(in.Jobs))
				}
				if res.Cost < in.LowerBound() || res.Cost > in.TotalLen() {
					t.Fatalf("%s/%s seed %d: cost %d outside [LB=%d, len=%d]",
						f.name, st.Name(), seed, res.Cost, in.LowerBound(), in.TotalLen())
				}
				if res.Cost != res.Schedule.Cost() {
					t.Fatalf("%s/%s seed %d: result cost %d != schedule cost %d",
						f.name, st.Name(), seed, res.Cost, res.Schedule.Cost())
				}
			}
		}
	}
}

// TestFirstFitCompetitiveRegression pins online FirstFit within a fixed
// constant of the exact optimum on small instances across classes. The
// bound is empirical headroom, not a theorem: regressions that worsen the
// packing will trip it.
func TestFirstFitCompetitiveRegression(t *testing.T) {
	const maxRatio = 3.0
	worst := 0.0
	for _, gen := range []func(int64, workload.Config) job.Instance{
		workload.General, workload.Clique, workload.Proper, workload.ProperClique, workload.Arrivals,
	} {
		for seed := int64(1); seed <= 10; seed++ {
			in := gen(seed, workload.Config{N: 12, G: 3, MaxTime: 60, MaxLen: 20})
			opt, err := exact.MinBusy(in)
			if err != nil {
				t.Fatal(err)
			}
			res := replayOrFatal(t, in, FirstFit())
			if ratio := res.CompetitiveVs(opt.Cost()); ratio > worst {
				worst = ratio
			}
		}
	}
	t.Logf("worst online FirstFit ratio vs exact: %.3f", worst)
	if worst > maxRatio {
		t.Errorf("online FirstFit ratio %.3f exceeds regression bound %.1f", worst, maxRatio)
	}
}

// TestAdversarialFirstFit drives online FirstFit to its Ω(g) lower bound:
// on the blocker stream it opens one machine per long job where the
// optimum shares a single machine among all of them.
func TestAdversarialFirstFit(t *testing.T) {
	in, err := workload.AdversarialFirstFit(3, 30)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := exact.MinBusy(in)
	if err != nil {
		t.Fatal(err)
	}
	res := replayOrFatal(t, in, FirstFit())
	ratio := res.CompetitiveVs(opt.Cost())
	t.Logf("g=3 adversarial: firstfit=%d exact=%d ratio=%.3f", res.Cost, opt.Cost(), ratio)
	if ratio < 2.0 {
		t.Errorf("adversarial stream no longer hurts FirstFit: ratio %.3f < 2.0", ratio)
	}
	// Every long job must sit on its own machine — the signature of the
	// lower-bound construction.
	longs := map[int]bool{}
	for p, j := range in.Jobs {
		if j.Len() > 2 {
			m := res.Schedule.Machine[p]
			if longs[m] {
				t.Fatalf("two long jobs share machine %d", m)
			}
			longs[m] = true
		}
	}
	if len(longs) != in.G {
		t.Errorf("long jobs on %d machines, want g = %d", len(longs), in.G)
	}
}

// TestAdversarialRatioOrdering measures both strategies' empirical
// competitive ratios on the Ω(g) blocker stream against the exact
// offline optimum. FirstFit stays within its documented g bound (the
// construction makes it pay about g·longLen against an optimum of about
// longLen, so the ratio approaches g from below), while Naive's cost
// exceeds FirstFit's on the same stream — it additionally pays every
// blocker its full length — yet still meets its own documented
// g-competitive bound cost = len(J) ≤ g·OPT.
func TestAdversarialRatioOrdering(t *testing.T) {
	const g, longLen = 3, 60
	in, err := workload.AdversarialFirstFit(g, longLen)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := exact.MinBusy(in)
	if err != nil {
		t.Fatal(err)
	}
	ff := replayOrFatal(t, in, FirstFit())
	nv := replayOrFatal(t, in, Naive())
	ffRatio := ff.CompetitiveVs(opt.Cost())
	nvRatio := nv.CompetitiveVs(opt.Cost())
	t.Logf("adversarial g=%d: exact=%d firstfit=%d (ratio %.3f) naive=%d (ratio %.3f)",
		g, opt.Cost(), ff.Cost, ffRatio, nv.Cost, nvRatio)

	if nv.Cost != in.TotalLen() {
		t.Errorf("naive cost %d, documented cost is len(J) = %d", nv.Cost, in.TotalLen())
	}
	if ffRatio > float64(g) {
		t.Errorf("FirstFit ratio %.3f exceeds the documented g = %d bound", ffRatio, g)
	}
	if ffRatio < float64(g)/2 {
		t.Errorf("FirstFit ratio %.3f; the Ω(g) stream should force at least g/2 = %.1f", ffRatio, float64(g)/2)
	}
	if nvRatio <= ffRatio {
		t.Errorf("naive ratio %.3f does not exceed FirstFit's %.3f on the blocker stream", nvRatio, ffRatio)
	}
	if nvRatio > float64(g) {
		t.Errorf("naive ratio %.3f exceeds its documented g-competitive bound", nvRatio)
	}
}

// TestAdversarialFirstFitScales checks the ratio keeps growing with g,
// using the Observation 2.1 lower bound once exact is out of reach.
func TestAdversarialFirstFitScales(t *testing.T) {
	for _, g := range []int{4, 6} {
		in, err := workload.AdversarialFirstFit(g, 100*int64(g))
		if err != nil {
			t.Fatal(err)
		}
		res := replayOrFatal(t, in, FirstFit())
		ratio := res.CompetitiveVs(in.LowerBound())
		t.Logf("g=%d adversarial: firstfit=%d LB=%d ratio=%.3f", g, res.Cost, in.LowerBound(), ratio)
		if min := float64(g) / 2; ratio < min {
			t.Errorf("g=%d: ratio vs LB %.3f, want >= %.1f", g, ratio, min)
		}
	}
}

func TestReplayRejectsInvalidInstance(t *testing.T) {
	if _, err := Replay(job.Instance{G: 0}, FirstFit()); err == nil {
		t.Error("g=0 accepted")
	}
	bad := job.NewInstance(2, [2]int64{5, 5})
	if _, err := Replay(bad, FirstFit()); err == nil {
		t.Error("empty-interval job accepted")
	}
}

func TestReplayRejectsBuggyStrategy(t *testing.T) {
	in := job.NewInstance(1, [2]int64{0, 10}, [2]int64{0, 10})
	if _, err := Replay(in, pickStrategy{idx: 5}); err == nil {
		t.Error("out-of-range pick accepted")
	}
	// Both jobs overlap with g=1: picking machine 0 for the second is
	// infeasible.
	if _, err := Replay(in, pickStrategy{idx: 0}); err == nil {
		t.Error("infeasible pick accepted")
	}
}

// pickStrategy always picks a fixed open-machine index once one exists.
type pickStrategy struct{ idx int }

func (pickStrategy) Name() string { return "pick" }

func (p pickStrategy) Pick(open []*Machine, j job.Job) (int, int64) {
	if len(open) == 0 {
		return -1, 0
	}
	return p.idx, 0
}

func ExampleReplay() {
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{1, 11}, [2]int64{2, 12})
	res, _ := Replay(in, FirstFit())
	fmt.Println(res.Strategy, res.Cost, res.MachinesOpened)
	// Output: online-firstfit 21 2
}
