package core_test

import (
	"context"
	"testing"

	busytime "repro"
	. "repro/internal/core"
	"repro/internal/exact"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/setcover"
	"repro/internal/workload"
)

// mustValid fails the test if the schedule is invalid or partial when it
// should be total.
func mustValid(t *testing.T, s Schedule, total bool) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	if total && s.Throughput() != len(s.Instance.Jobs) {
		t.Fatalf("schedule is partial: %d of %d", s.Throughput(), len(s.Instance.Jobs))
	}
}

func optCost(t *testing.T, in job.Instance) int64 {
	t.Helper()
	c, err := exact.MinBusyCost(in)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNaivePerJob(t *testing.T) {
	in := workload.General(1, workload.Config{N: 8, G: 3, MaxTime: 50, MaxLen: 20})
	s := NaivePerJob(in)
	mustValid(t, s, true)
	if s.Cost() != in.TotalLen() {
		t.Errorf("naive cost = %d, want len(J) = %d", s.Cost(), in.TotalLen())
	}
	if s.Saving() != 0 {
		t.Errorf("naive saving = %d", s.Saving())
	}
}

// Proposition 2.1: any schedule is a g-approximation.
func TestNaiveWithinGTimesOpt(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		in := workload.General(seed, workload.Config{N: 9, G: 3, MaxTime: 40, MaxLen: 15})
		opt := optCost(t, in)
		if got := NaivePerJob(in).Cost(); got > int64(in.G)*opt {
			t.Errorf("seed %d: naive %d > g*opt %d", seed, got, int64(in.G)*opt)
		}
	}
}

func TestFirstFitValidAndBounded(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		in := workload.General(seed, workload.Config{N: 10, G: 2, MaxTime: 60, MaxLen: 25})
		s := FirstFit(in)
		mustValid(t, s, true)
		opt := optCost(t, in)
		if s.Cost() > 4*opt {
			t.Errorf("seed %d: FirstFit %d > 4*opt %d", seed, s.Cost(), opt)
		}
		if s.Cost() < opt {
			t.Errorf("seed %d: FirstFit %d beat the oracle %d", seed, s.Cost(), opt)
		}
	}
}

func TestFirstFitCapacityOne(t *testing.T) {
	// g=1: every machine holds pairwise non-overlapping jobs.
	in := workload.General(7, workload.Config{N: 12, G: 1, MaxTime: 50, MaxLen: 20})
	s := FirstFit(in)
	mustValid(t, s, true)
}

func TestOneSidedGreedyOptimal(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, sharedStart := range []bool{true, false} {
			in := workload.OneSided(seed, workload.Config{N: 9, G: 3, MaxTime: 100, MaxLen: 30}, sharedStart)
			s, err := OneSidedGreedy(in)
			if err != nil {
				t.Fatal(err)
			}
			mustValid(t, s, true)
			if opt := optCost(t, in); s.Cost() != opt {
				t.Errorf("seed %d shared-start=%v: greedy %d != opt %d", seed, sharedStart, s.Cost(), opt)
			}
		}
	}
}

func TestOneSidedGreedyRejectsGeneral(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 5}, [2]int64{1, 7})
	if _, err := OneSidedGreedy(in); err == nil {
		t.Fatal("accepted non-one-sided instance")
	}
}

// Lemma 3.1: matching solves clique g=2 exactly.
func TestCliqueMatchingOptimal(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		in := workload.Clique(seed, workload.Config{N: 10, G: 2, MaxTime: 100, MaxLen: 40})
		s, err := CliqueMatching(in)
		if err != nil {
			t.Fatal(err)
		}
		mustValid(t, s, true)
		if opt := optCost(t, in); s.Cost() != opt {
			t.Errorf("seed %d: matching %d != opt %d", seed, s.Cost(), opt)
		}
	}
}

func TestCliqueMatchingRejects(t *testing.T) {
	if _, err := CliqueMatching(job.NewInstance(3, [2]int64{0, 5}, [2]int64{1, 6})); err == nil {
		t.Fatal("accepted g != 2")
	}
	if _, err := CliqueMatching(job.NewInstance(2, [2]int64{0, 5}, [2]int64{10, 15})); err == nil {
		t.Fatal("accepted non-clique")
	}
}

// Lemma 3.2: set cover is a g·H_g/(H_g+g−1)-approximation on cliques.
func TestCliqueSetCoverWithinBound(t *testing.T) {
	for _, g := range []int{2, 3, 4} {
		hg := setcover.Harmonic(g)
		bound := float64(g) * hg / (hg + float64(g) - 1)
		for seed := int64(0); seed < 15; seed++ {
			in := workload.Clique(seed, workload.Config{N: 9, G: g, MaxTime: 100, MaxLen: 40})
			s, err := CliqueSetCover(in)
			if err != nil {
				t.Fatal(err)
			}
			mustValid(t, s, true)
			opt := optCost(t, in)
			if float64(s.Cost()) > bound*float64(opt)+1e-9 {
				t.Errorf("g=%d seed %d: setcover %d > %.4f * opt %d", g, seed, s.Cost(), bound, opt)
			}
		}
	}
}

func TestCliqueSetCoverExactForG2(t *testing.T) {
	// For g = 2 weighted set cover with sets of size <= 2 is solved
	// optimally by... greedy is NOT exact in general, but the paper's
	// bound 2H_2/(H_2+1) = 1.2 must hold; additionally compare against
	// matching to confirm both stay within the bound of each other.
	for seed := int64(50); seed < 60; seed++ {
		in := workload.Clique(seed, workload.Config{N: 8, G: 2, MaxTime: 80, MaxLen: 30})
		sc, err := CliqueSetCover(in)
		if err != nil {
			t.Fatal(err)
		}
		opt := optCost(t, in)
		if float64(sc.Cost()) > 1.2*float64(opt)+1e-9 {
			t.Errorf("seed %d: setcover %d > 1.2*opt %d", seed, sc.Cost(), opt)
		}
	}
}

func TestCliqueSetCoverRejects(t *testing.T) {
	if _, err := CliqueSetCover(job.NewInstance(2, [2]int64{0, 5}, [2]int64{10, 15})); err == nil {
		t.Fatal("accepted non-clique")
	}
}

// Theorem 3.1: BestCut is a (2−1/g)-approximation on proper instances.
func TestBestCutWithinBound(t *testing.T) {
	for _, g := range []int{2, 3, 4} {
		bound := 2 - 1/float64(g)
		for seed := int64(0); seed < 15; seed++ {
			in := workload.Proper(seed, workload.Config{N: 10, G: g, MaxTime: 100, MaxLen: 20})
			s, err := BestCut(in)
			if err != nil {
				t.Fatal(err)
			}
			mustValid(t, s, true)
			opt := optCost(t, in)
			if float64(s.Cost()) > bound*float64(opt)+1e-9 {
				t.Errorf("g=%d seed %d: BestCut %d > %.3f * opt %d", g, seed, s.Cost(), bound, opt)
			}
		}
	}
}

func TestBestCutRejectsImproper(t *testing.T) {
	if _, err := BestCut(job.NewInstance(2, [2]int64{0, 10}, [2]int64{2, 5})); err == nil {
		t.Fatal("accepted improper instance")
	}
}

func TestBestCutSingleJob(t *testing.T) {
	in := job.NewInstance(3, [2]int64{2, 9})
	s, err := BestCut(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost() != 7 {
		t.Errorf("cost = %d", s.Cost())
	}
}

// Theorem 3.2: the consecutive DP is optimal on proper cliques.
func TestFindBestConsecutiveOptimal(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		in := workload.ProperClique(seed, workload.Config{N: 10, G: 3, MaxTime: 100, MaxLen: 25})
		if !igraph.IsProperClique(in.Jobs) {
			t.Fatalf("seed %d: generator produced non-proper-clique", seed)
		}
		s, err := FindBestConsecutive(in)
		if err != nil {
			t.Fatal(err)
		}
		mustValid(t, s, true)
		if opt := optCost(t, in); s.Cost() != opt {
			t.Errorf("seed %d: DP %d != opt %d", seed, s.Cost(), opt)
		}
	}
}

func TestFindBestConsecutiveRejects(t *testing.T) {
	if _, err := FindBestConsecutive(job.NewInstance(2, [2]int64{0, 10}, [2]int64{2, 5})); err == nil {
		t.Fatal("accepted non-proper-clique")
	}
}

// solveAuto runs the Solver's auto dispatch, the only dispatcher, and
// returns the schedule with the algorithm it reports.
func solveAuto(t *testing.T, req busytime.Request) (Schedule, string) {
	t.Helper()
	res, err := busytime.NewSolver().Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule, res.Algorithm
}

func TestSolverMinBusyDispatch(t *testing.T) {
	cases := []struct {
		in   job.Instance
		want string
	}{
		{workload.OneSided(1, workload.Config{N: 6, G: 2, MaxTime: 50, MaxLen: 20}, true), "one-sided-greedy"},
		{workload.ProperClique(1, workload.Config{N: 6, G: 2, MaxTime: 50, MaxLen: 20}), "find-best-consecutive"},
		{job.NewInstance(2, [2]int64{0, 20}, [2]int64{1, 8}, [2]int64{2, 9}), "clique-matching"},
		{job.NewInstance(3, [2]int64{0, 20}, [2]int64{1, 8}, [2]int64{2, 9}), "clique-set-cover"},
	}
	for i, c := range cases {
		s, name := solveAuto(t, busytime.Request{Instance: c.in})
		if name != c.want {
			t.Errorf("case %d: dispatched to %q, want %q", i, name, c.want)
		}
		mustValid(t, s, true)
	}
}

func TestSolverMinBusyComponents(t *testing.T) {
	// Two far-apart proper cliques: decompose and solve each optimally.
	in := job.NewInstance(2,
		[2]int64{0, 10}, [2]int64{5, 15},
		[2]int64{1000, 1010}, [2]int64{1005, 1015})
	s, name := solveAuto(t, busytime.Request{Instance: in})
	mustValid(t, s, true)
	if opt := optCost(t, in); s.Cost() != opt {
		t.Errorf("auto %d != opt %d (via %s)", s.Cost(), opt, name)
	}
	if name != "components:find-best-consecutive" {
		t.Errorf("dispatch = %q", name)
	}
}

func TestSolverMinBusyGeneralFallsBackToFirstFit(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{2, 5}, [2]int64{4, 30}, [2]int64{29, 40})
	s, name := solveAuto(t, busytime.Request{Instance: in})
	mustValid(t, s, true)
	if name != "first-fit" {
		t.Errorf("dispatch = %q", name)
	}
}

// Auto dispatch must never lose to the g-approximation guarantee.
func TestSolverMinBusyWithinG(t *testing.T) {
	gens := []func(int64) job.Instance{
		func(s int64) job.Instance {
			return workload.General(s, workload.Config{N: 9, G: 2, MaxTime: 60, MaxLen: 25})
		},
		func(s int64) job.Instance {
			return workload.Clique(s, workload.Config{N: 9, G: 3, MaxTime: 60, MaxLen: 25})
		},
		func(s int64) job.Instance {
			return workload.Proper(s, workload.Config{N: 9, G: 3, MaxTime: 60, MaxLen: 25})
		},
		func(s int64) job.Instance {
			return workload.Cloud(s, workload.Config{N: 9, G: 2, MaxTime: 80, MaxLen: 20})
		},
		func(s int64) job.Instance {
			return workload.Lightpaths(s, workload.Config{N: 9, G: 3, MaxTime: 90, MaxLen: 25})
		},
	}
	for gi, gen := range gens {
		for seed := int64(0); seed < 10; seed++ {
			in := gen(seed)
			s, name := solveAuto(t, busytime.Request{Instance: in})
			mustValid(t, s, true)
			opt := optCost(t, in)
			if s.Cost() > int64(in.G)*opt {
				t.Errorf("gen %d seed %d (%s): cost %d > g*opt %d", gi, seed, name, s.Cost(), int64(in.G)*opt)
			}
		}
	}
}
