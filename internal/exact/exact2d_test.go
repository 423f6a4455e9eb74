package exact

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/workload"
)

func TestMinBusyRectTiny(t *testing.T) {
	// One job: its own area.
	one := job.RectInstance{G: 2, Jobs: []job.RectJob{job.NewRectJob(0, 0, 4, 0, 3)}}
	s, err := MinBusyRect(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Cost(); got != 12 {
		t.Fatalf("single job cost %d, want 12", got)
	}

	// Two identical rectangles, g = 2: sharing one machine halves cost.
	two := job.RectInstance{G: 2, Jobs: []job.RectJob{
		job.NewRectJob(0, 0, 4, 0, 3),
		job.NewRectJob(1, 0, 4, 0, 3),
	}}
	s, err = MinBusyRect(context.Background(), two)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Cost(); got != 12 {
		t.Fatalf("two stackable jobs cost %d, want 12", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	// Same two rectangles at g = 1 cannot share: full area twice.
	two.G = 1
	s, err = MinBusyRect(context.Background(), two)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Cost(); got != 24 {
		t.Fatalf("g=1 cost %d, want 24", got)
	}
}

// TestMinBusyRectDominatesApproximations cross-checks the oracle on
// random small instances: valid schedule, cost at least the Observation
// 2.1 bound and at most every polynomial algorithm's cost.
func TestMinBusyRectDominatesApproximations(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		in := workload.BoundedGammaRects(seed, workload.Config{N: 6, G: 2, MaxTime: 40, MaxLen: 10}, 4)
		opt, err := MinBusyRect(context.Background(), in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := opt.Validate(); err != nil {
			t.Fatalf("seed %d: oracle schedule invalid: %v", seed, err)
		}
		optCost := opt.Cost()
		if lb := in.LowerBound(); optCost < lb {
			t.Fatalf("seed %d: optimum %d below lower bound %d", seed, optCost, lb)
		}
		for name, cost := range map[string]int64{
			"naive":     core.NaivePerJob2D(in).Cost(),
			"first-fit": core.FirstFit2D(in).Cost(),
		} {
			if cost < optCost {
				t.Fatalf("seed %d: %s cost %d beats the optimum %d", seed, name, cost, optCost)
			}
		}
	}
}

func TestMinBusyRectRejectsOversized(t *testing.T) {
	in := workload.BoundedGammaRects(1, workload.Config{N: MaxRectN + 1, G: 2, MaxTime: 40, MaxLen: 10}, 4)
	if _, err := MinBusyRect(context.Background(), in); err == nil {
		t.Fatal("oversized instance accepted")
	}
}

func TestMinBusyRectCancellation(t *testing.T) {
	in := workload.BoundedGammaRects(1, workload.Config{N: MaxRectN, G: 2, MaxTime: 40, MaxLen: 10}, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MinBusyRect(ctx, in); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestMinBusyRectEmpty(t *testing.T) {
	s, err := MinBusyRect(context.Background(), job.RectInstance{G: 2})
	if err != nil || s.Cost() != 0 {
		t.Fatalf("empty instance: %v cost %d", err, s.Cost())
	}
}
