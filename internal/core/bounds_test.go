package core

import (
	"math"
	"testing"

	"repro/internal/job"
)

func TestSavingToCostRatio(t *testing.T) {
	// Lemma 2.1 with BestCut's rho = g/(g-1) must give 2 - 1/g.
	for _, g := range []int{2, 3, 4, 10} {
		rho := float64(g) / float64(g-1)
		want := 2 - 1/float64(g)
		if got := SavingToCostRatio(rho, g); math.Abs(got-want) > 1e-12 {
			t.Errorf("g=%d: ratio = %v, want %v", g, got, want)
		}
	}
	// rho = 1 (optimal saving) must give ratio 1 regardless of g.
	if got := SavingToCostRatio(1, 7); math.Abs(got-1) > 1e-12 {
		t.Errorf("optimal saving ratio = %v", got)
	}
}

func TestBoundsOf(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{0, 10}, [2]int64{20, 30})
	order := job.ByStart(in.Jobs)
	if in.Span() != 20 || in.ParallelismBound() != 15 || in.TotalLen() != 30 {
		t.Fatalf("span = %d, parallelism bound = %d, length = %d",
			in.Span(), in.ParallelismBound(), in.TotalLen())
	}
	if lb := in.LowerBoundByStart(order); lb != 20 || lb != in.LowerBound() {
		t.Errorf("LowerBoundByStart = %d, LowerBound = %d, want 20", lb, in.LowerBound())
	}
	// Both ends of [LowerBound, TotalLen] are reached: FirstFit pairs the
	// two [0,10) jobs and reuses the machine for [20,30); one job per
	// machine pays every job's length.
	if c := FirstFit(in).CostByStart(order); c != in.LowerBound() {
		t.Errorf("FirstFit cost = %d, want lower bound %d", c, in.LowerBound())
	}
	if c := NaivePerJob(in).CostByStart(order); c != in.TotalLen() {
		t.Errorf("NaivePerJob cost = %d, want length %d", c, in.TotalLen())
	}
}

func TestBoundsHoldForSchedules(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15}, [2]int64{8, 20})
	for _, s := range []Schedule{NaivePerJob(in), FirstFit(in)} {
		if c := s.Cost(); c < in.LowerBound() || c > in.TotalLen() {
			t.Errorf("cost %d outside bounds [%d, %d]", c, in.LowerBound(), in.TotalLen())
		}
	}
}
