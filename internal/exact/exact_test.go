package exact

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/job"
)

func TestMinBusySingles(t *testing.T) {
	// g=1: pairwise-overlapping jobs must be split across machines, so the
	// optimum is len(J) = 10 + 10 + 3 = 23.
	in := job.NewInstance(1, [2]int64{0, 10}, [2]int64{5, 15}, [2]int64{9, 12})
	s, err := MinBusy(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Cost(); got != in.TotalLen() || got != 23 {
		t.Errorf("cost = %d, want len(J) = 23", got)
	}
}

func TestMinBusyPacksPair(t *testing.T) {
	// Two identical jobs with g=2 share one machine: cost = 10.
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{0, 10})
	s, err := MinBusy(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost() != 10 || s.Machines() != 1 {
		t.Errorf("cost = %d machines = %d, want 10 on 1 machine", s.Cost(), s.Machines())
	}
}

func TestMinBusyRespectsCapacity(t *testing.T) {
	// Three identical jobs, g=2: one machine takes 2, another takes 1.
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{0, 10}, [2]int64{0, 10})
	s, err := MinBusy(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Cost() != 20 {
		t.Errorf("cost = %d, want 20", s.Cost())
	}
}

func TestMinBusyNonOverlappingChain(t *testing.T) {
	// Non-overlapping jobs can all share one machine even with g=1.
	in := job.NewInstance(1, [2]int64{0, 5}, [2]int64{5, 10}, [2]int64{20, 25})
	s, err := MinBusy(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost() != 15 {
		t.Errorf("cost = %d, want 15", s.Cost())
	}
}

func TestMinBusyEmpty(t *testing.T) {
	s, err := MinBusy(context.Background(), job.Instance{G: 1})
	if err != nil || s.Cost() != 0 {
		t.Fatalf("empty instance: %v %v", s.Cost(), err)
	}
}

func TestMinBusyTooLarge(t *testing.T) {
	jobs := make([]job.Job, MaxN+1)
	for i := range jobs {
		jobs[i] = job.New(i, 0, 1)
	}
	if _, err := MinBusy(context.Background(), job.Instance{Jobs: jobs, G: 1}); err == nil {
		t.Fatal("oversized instance accepted")
	}
}

func TestMinBusyRespectsDemands(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{0, 10})
	in.Jobs[0].Demand = 2
	in.Jobs[1].Demand = 2
	s, err := MinBusy(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Cost() != 20 {
		t.Errorf("cost = %d, want 20 (demand-2 jobs cannot share)", s.Cost())
	}
}

func TestMaxThroughputBudgetZero(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{0, 10})
	s, err := MaxThroughput(context.Background(), in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Throughput() != 0 {
		t.Errorf("throughput = %d with zero budget", s.Throughput())
	}
}

func TestMaxThroughputFullBudget(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15}, [2]int64{30, 40})
	s, err := MaxThroughput(context.Background(), in, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Throughput() != 3 {
		t.Errorf("throughput = %d, want all 3", s.Throughput())
	}
}

func TestMaxThroughputTightBudget(t *testing.T) {
	// Budget 10 fits the two overlapping jobs on one machine (span 10 each
	// pair? [0,10) and [0,10) share: cost 10) but not the third far job.
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{0, 10}, [2]int64{30, 40})
	s, err := MaxThroughput(context.Background(), in, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Throughput() != 2 {
		t.Errorf("throughput = %d, want 2", s.Throughput())
	}
	if s.Cost() > 10 {
		t.Errorf("cost %d exceeds budget", s.Cost())
	}
}

func TestMaxThroughputPrefersCheaper(t *testing.T) {
	// Two ways to schedule one job: lengths 10 and 3. Budget 3 fits only
	// the short one.
	in := job.NewInstance(1, [2]int64{0, 10}, [2]int64{0, 3})
	s, err := MaxThroughput(context.Background(), in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Throughput() != 1 || s.Machine[1] == -1 {
		t.Errorf("want only short job scheduled; got machines %v", s.Machine)
	}
}

func TestMaxWeightThroughput(t *testing.T) {
	in := job.NewInstance(1, [2]int64{0, 10}, [2]int64{0, 3})
	in.Jobs[0].Weight = 100 // heavy long job
	s, err := MaxWeightThroughput(context.Background(), in, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine[0] == -1 {
		t.Errorf("heavy job should win under weight objective: %v", s.Machine)
	}
	if s.WeightedThroughput() != 100 {
		t.Errorf("weighted throughput = %d", s.WeightedThroughput())
	}
}

func TestMaxThroughputNegativeBudget(t *testing.T) {
	in := job.NewInstance(1, [2]int64{0, 10})
	s, err := MaxThroughput(context.Background(), in, -1)
	if err != nil || s.Throughput() != 0 {
		t.Fatalf("negative budget: %d %v", s.Throughput(), err)
	}
}

// Property: the optimal cost respects the Observation 2.1 bounds
// (span and parallelism lower bounds, length upper bound) and every
// returned schedule is valid.
func TestPropertyOptimalWithinBounds(t *testing.T) {
	f := func(seed int64, nRaw, gRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%9) + 1
		g := int(gRaw%3) + 1
		spans := make([][2]int64, n)
		for i := range spans {
			s := r.Int63n(50)
			spans[i] = [2]int64{s, s + 1 + r.Int63n(30)}
		}
		in := job.NewInstance(g, spans...)
		s, err := MinBusy(context.Background(), in)
		if err != nil || s.Validate() != nil {
			return false
		}
		c := s.Cost()
		return c >= in.Span() && c >= in.ParallelismBound() && c <= in.TotalLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: MaxThroughput with budget = optimal MinBusy cost schedules
// every job; with budget one less, it schedules fewer than n only if the
// instance is budget-tight (never more than n, and cost always within
// budget).
func TestPropertyThroughputConsistency(t *testing.T) {
	f := func(seed int64, nRaw, gRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%7) + 1
		g := int(gRaw%3) + 1
		spans := make([][2]int64, n)
		for i := range spans {
			s := r.Int63n(40)
			spans[i] = [2]int64{s, s + 1 + r.Int63n(20)}
		}
		in := job.NewInstance(g, spans...)
		opt, err := MinBusyCost(in)
		if err != nil {
			return false
		}
		full, err := MaxThroughput(context.Background(), in, opt)
		if err != nil || full.Throughput() != n || full.Cost() > opt {
			return false
		}
		tight, err := MaxThroughput(context.Background(), in, opt-1)
		if err != nil || tight.Throughput() >= n || tight.Cost() > opt-1 {
			return false
		}
		return tight.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestCtxCancellation checks that the oracles abandon their subset DPs
// once the context fires: with n = 16 the tables hold 65536 masks, so
// the periodic check is guaranteed to run, and a pre-canceled context
// must surface context.Canceled without finishing the DP.
func TestCtxCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	spans := make([][2]int64, 16)
	for i := range spans {
		s := r.Int63n(100)
		spans[i] = [2]int64{s, s + 1 + r.Int63n(40)}
	}
	in := job.NewInstance(3, spans...)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MinBusy(ctx, in); !errors.Is(err, context.Canceled) {
		t.Errorf("MinBusy: want context.Canceled, got %v", err)
	}
	if _, err := MaxThroughput(ctx, in, 1000); !errors.Is(err, context.Canceled) {
		t.Errorf("MaxThroughput: want context.Canceled, got %v", err)
	}
	if _, err := MaxWeightThroughput(ctx, in, 1000); !errors.Is(err, context.Canceled) {
		t.Errorf("MaxWeightThroughput: want context.Canceled, got %v", err)
	}

	// A live context solves normally through the same code path.
	s, err := MinBusy(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Throughput() != 16 {
		t.Errorf("scheduled %d/16", s.Throughput())
	}
}
