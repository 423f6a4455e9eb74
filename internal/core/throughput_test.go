package core_test

import (
	"context"
	"testing"

	. "repro/internal/core"
	"repro/internal/exact"
	"repro/internal/job"
	"repro/internal/workload"
)

func optThroughput(t *testing.T, in job.Instance, budget int64) int {
	t.Helper()
	s, err := exact.MaxThroughput(context.Background(), in, budget)
	if err != nil {
		t.Fatal(err)
	}
	return s.Throughput()
}

// budgets returns a representative sweep of budgets for an instance: zero,
// tight fractions of the optimal full cost, and a generous budget.
func budgets(t *testing.T, in job.Instance) []int64 {
	t.Helper()
	full := optCost(t, in)
	return []int64{0, full / 4, full / 2, (3 * full) / 4, full - 1, full, full + 10}
}

// Proposition 4.1: one-sided throughput is exact.
func TestOneSidedThroughputOptimal(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, sharedStart := range []bool{true, false} {
			in := workload.OneSided(seed, workload.Config{N: 8, G: 3, MaxTime: 100, MaxLen: 30}, sharedStart)
			for _, budget := range budgets(t, in) {
				s, err := OneSidedThroughput(in, budget)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Validate(); err != nil {
					t.Fatal(err)
				}
				if s.Cost() > budget {
					t.Fatalf("seed %d budget %d: cost %d over budget", seed, budget, s.Cost())
				}
				if want := optThroughput(t, in, budget); s.Throughput() != want {
					t.Errorf("seed %d budget %d: tput %d != opt %d", seed, budget, s.Throughput(), want)
				}
			}
		}
	}
}

func TestOneSidedThroughputRejects(t *testing.T) {
	if _, err := OneSidedThroughput(job.NewInstance(2, [2]int64{0, 5}, [2]int64{1, 7}), 10); err == nil {
		t.Fatal("accepted non-one-sided instance")
	}
}

// Theorem 4.1: combined clique throughput is a 4-approximation.
func TestCliqueThroughputWithin4(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		for _, g := range []int{1, 2, 3} {
			in := workload.Clique(seed, workload.Config{N: 9, G: g, MaxTime: 100, MaxLen: 40})
			for _, budget := range budgets(t, in) {
				s, err := CliqueThroughput(in, budget)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Validate(); err != nil {
					t.Fatal(err)
				}
				if s.Cost() > budget {
					t.Fatalf("seed %d g %d budget %d: cost %d over budget", seed, g, budget, s.Cost())
				}
				opt := optThroughput(t, in, budget)
				if 4*s.Throughput() < opt {
					t.Errorf("seed %d g %d budget %d: tput %d < opt/4 (opt %d)", seed, g, budget, s.Throughput(), opt)
				}
			}
		}
	}
}

func TestCliqueAlg2CoversSpanPairs(t *testing.T) {
	// Alg2 alone must schedule min(m, g) jobs from the best coverable span.
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{1, 9}, [2]int64{2, 8}, [2]int64{0, 100})
	s, err := CliqueAlg2(in, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Throughput() != 2 {
		t.Errorf("tput = %d, want g = 2 from the [0,10) coverage", s.Throughput())
	}
	if s.Cost() > 10 {
		t.Errorf("cost = %d over budget", s.Cost())
	}
}

func TestCliqueAlg1BudgetHalving(t *testing.T) {
	// Alg1's schedules must respect the full budget even though it plans
	// with reduced (head-only) costs.
	for seed := int64(0); seed < 10; seed++ {
		in := workload.Clique(seed, workload.Config{N: 10, G: 2, MaxTime: 100, MaxLen: 50})
		for _, budget := range budgets(t, in) {
			s, err := CliqueAlg1(in, budget)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			if s.Cost() > budget {
				t.Errorf("seed %d budget %d: Alg1 cost %d over budget", seed, budget, s.Cost())
			}
		}
	}
}

func TestCliqueThroughputRejectsNonClique(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 5}, [2]int64{10, 15})
	if _, err := CliqueThroughput(in, 100); err == nil {
		t.Fatal("accepted non-clique")
	}
}

// Theorem 4.2: the consecutive throughput DP is exact on proper cliques.
func TestMostThroughputConsecutiveOptimal(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, g := range []int{1, 2, 3, 4} {
			in := workload.ProperClique(seed, workload.Config{N: 9, G: g, MaxTime: 100, MaxLen: 25})
			for _, budget := range budgets(t, in) {
				s, err := MostThroughputConsecutive(in, budget)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Validate(); err != nil {
					t.Fatal(err)
				}
				if s.Cost() > budget {
					t.Fatalf("seed %d g %d budget %d: cost %d over budget", seed, g, budget, s.Cost())
				}
				if want := optThroughput(t, in, budget); s.Throughput() != want {
					t.Errorf("seed %d g %d budget %d: tput %d != opt %d", seed, g, budget, s.Throughput(), want)
				}
			}
		}
	}
}

func TestMostThroughputConsecutiveRejects(t *testing.T) {
	if _, err := MostThroughputConsecutive(job.NewInstance(2, [2]int64{0, 10}, [2]int64{2, 5}), 10); err == nil {
		t.Fatal("accepted non-proper-clique")
	}
}

func TestMostThroughputZeroBudget(t *testing.T) {
	in := workload.ProperClique(3, workload.Config{N: 6, G: 2, MaxTime: 50, MaxLen: 20})
	s, err := MostThroughputConsecutive(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Throughput() != 0 {
		t.Errorf("tput = %d with zero budget", s.Throughput())
	}
}

// Section 5 extension: weighted throughput DP matches the weighted oracle.
func TestMostWeightConsecutiveOptimal(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		in := workload.ProperClique(seed, workload.Config{N: 8, G: 3, MaxTime: 100, MaxLen: 25})
		// Attach pseudo-random weights deterministically.
		for i := range in.Jobs {
			in.Jobs[i].Weight = 1 + (int64(i)*7+seed)%10
		}
		for _, budget := range budgets(t, in) {
			s, err := MostWeightConsecutive(in, budget)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			if s.Cost() > budget {
				t.Fatalf("seed %d budget %d: cost %d over budget", seed, budget, s.Cost())
			}
			want, err := exact.MaxWeightThroughput(context.Background(), in, budget)
			if err != nil {
				t.Fatal(err)
			}
			if s.WeightedThroughput() != want.WeightedThroughput() {
				t.Errorf("seed %d budget %d: weight %d != opt %d",
					seed, budget, s.WeightedThroughput(), want.WeightedThroughput())
			}
		}
	}
}

// Unweighted DP and weighted DP with unit weights must agree.
func TestWeightedDPUnitWeightsAgree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in := workload.ProperClique(seed, workload.Config{N: 9, G: 2, MaxTime: 80, MaxLen: 20})
		for _, budget := range budgets(t, in) {
			a, err := MostThroughputConsecutive(in, budget)
			if err != nil {
				t.Fatal(err)
			}
			b, err := MostWeightConsecutive(in, budget)
			if err != nil {
				t.Fatal(err)
			}
			if a.Throughput() != b.Throughput() {
				t.Errorf("seed %d budget %d: unweighted %d != weighted-as-count %d",
					seed, budget, a.Throughput(), b.Throughput())
			}
		}
	}
}

// Section 5 weighted extension on one-sided cliques: the group-leader DP
// matches the exhaustive weighted oracle.
func TestOneSidedWeightThroughputOptimal(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		for _, sharedStart := range []bool{true, false} {
			in := workload.OneSided(seed, workload.Config{N: 9, G: 3, MaxTime: 100, MaxLen: 30}, sharedStart)
			for i := range in.Jobs {
				in.Jobs[i].Weight = 1 + (int64(i)*11+seed)%9
			}
			for _, budget := range budgets(t, in) {
				s, err := OneSidedWeightThroughput(in, budget)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Validate(); err != nil {
					t.Fatal(err)
				}
				if s.Cost() > budget {
					t.Fatalf("seed %d budget %d: cost %d over budget", seed, budget, s.Cost())
				}
				want, err := exact.MaxWeightThroughput(context.Background(), in, budget)
				if err != nil {
					t.Fatal(err)
				}
				if s.WeightedThroughput() != want.WeightedThroughput() {
					t.Errorf("seed %d shared-start=%v budget %d: weight %d != opt %d",
						seed, sharedStart, budget, s.WeightedThroughput(), want.WeightedThroughput())
				}
			}
		}
	}
}

// With unit weights the weighted one-sided DP must match the unweighted
// prefix algorithm's throughput.
func TestOneSidedWeightUnitAgreesWithPrefix(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in := workload.OneSided(seed, workload.Config{N: 10, G: 2, MaxTime: 100, MaxLen: 25}, true)
		for _, budget := range budgets(t, in) {
			a, err := OneSidedThroughput(in, budget)
			if err != nil {
				t.Fatal(err)
			}
			b, err := OneSidedWeightThroughput(in, budget)
			if err != nil {
				t.Fatal(err)
			}
			if a.Throughput() != b.Throughput() {
				t.Errorf("seed %d budget %d: prefix %d != weighted-unit %d",
					seed, budget, a.Throughput(), b.Throughput())
			}
		}
	}
}

func TestOneSidedWeightThroughputRejects(t *testing.T) {
	if _, err := OneSidedWeightThroughput(job.NewInstance(2, [2]int64{0, 5}, [2]int64{1, 7}), 10); err == nil {
		t.Fatal("accepted non-one-sided instance")
	}
}

// Proposition 2.2: binary search over an exact MaxThroughput solver
// recovers the optimal MinBusy cost.
func TestMinBusyViaThroughput(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in := workload.ProperClique(seed, workload.Config{N: 8, G: 3, MaxTime: 80, MaxLen: 20})
		s, err := MinBusyViaThroughput(in, MostThroughputConsecutive)
		if err != nil {
			t.Fatal(err)
		}
		mustValid(t, s, true)
		if opt := optCost(t, in); s.Cost() != opt {
			t.Errorf("seed %d: reduction %d != opt %d", seed, s.Cost(), opt)
		}
	}
}

func TestMinBusyViaThroughputGeneralOracle(t *testing.T) {
	in := workload.General(5, workload.Config{N: 8, G: 2, MaxTime: 50, MaxLen: 20})
	solve := func(in job.Instance, budget int64) (Schedule, error) {
		return exact.MaxThroughput(context.Background(), in, budget)
	}
	s, err := MinBusyViaThroughput(in, solve)
	if err != nil {
		t.Fatal(err)
	}
	mustValid(t, s, true)
	if opt := optCost(t, in); s.Cost() != opt {
		t.Errorf("reduction %d != opt %d", s.Cost(), opt)
	}
}
