package core_test

import (
	"testing"

	busytime "repro"
	. "repro/internal/core"
	"repro/internal/job"
	"repro/internal/workload"
)

// CliqueAlg1 with every job left-heavy (or right-heavy) must still work:
// one of the two prefix families is empty.
func TestCliqueAlg1OneSidedHeaviness(t *testing.T) {
	// All share start 100 (one-sided => all right parts are 0 at t=100,
	// so all are left-heavy... depends on the chosen common time). Use
	// explicitly skewed jobs: huge left parts, tiny right parts.
	in := job.NewInstance(2,
		[2]int64{0, 101}, [2]int64{10, 102}, [2]int64{20, 103}, [2]int64{30, 104})
	s, err := CliqueAlg1(in, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Cost() > 1000 {
		t.Fatal("budget exceeded")
	}
}

func TestCliqueAlg1ZeroBudget(t *testing.T) {
	in := workload.Clique(1, workload.Config{N: 6, G: 2, MaxTime: 100, MaxLen: 30})
	s, err := CliqueAlg1(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-length heads are impossible here, so nothing fits.
	if s.Cost() > 0 {
		t.Fatalf("cost %d with zero budget", s.Cost())
	}
}

func TestCliqueAlg2BudgetTooSmallForAnyJob(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 100}, [2]int64{50, 150})
	s, err := CliqueAlg2(in, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Throughput() != 0 {
		t.Fatalf("scheduled %d jobs under an infeasible budget", s.Throughput())
	}
}

func TestCliqueAlg2EmptyInstance(t *testing.T) {
	s, err := CliqueAlg2(job.Instance{G: 2}, 10)
	if err != nil || s.Throughput() != 0 {
		t.Fatalf("empty instance: %v %v", s.Throughput(), err)
	}
}

func TestGreedyThroughputZeroAndNegativeBudget(t *testing.T) {
	in := workload.General(1, workload.Config{N: 8, G: 2, MaxTime: 50, MaxLen: 20})
	for _, b := range []int64{0, -5} {
		s := GreedyThroughput(in, b)
		if s.Throughput() != 0 {
			t.Fatalf("budget %d scheduled %d jobs", b, s.Throughput())
		}
	}
}

func TestGreedyThroughputPrefersShortJobs(t *testing.T) {
	// One short and one long non-overlapping job; budget fits only the
	// short one plus maybe: shortest-first must take the short job.
	in := job.NewInstance(1, [2]int64{0, 100}, [2]int64{200, 210})
	s := GreedyThroughput(in, 10)
	if s.Machine[1] == Unscheduled || s.Machine[0] != Unscheduled {
		t.Fatalf("expected only the short job: %v", s.Machine)
	}
}

func TestMinBusyViaThroughputEmptyInstance(t *testing.T) {
	s, err := MinBusyViaThroughput(job.Instance{G: 1}, MostThroughputConsecutive)
	if err != nil || s.Cost() != 0 {
		t.Fatalf("empty instance: %v %v", s.Cost(), err)
	}
}

func TestMinBusyViaThroughputBrokenSolver(t *testing.T) {
	in := workload.ProperClique(1, workload.Config{N: 5, G: 2, MaxTime: 50, MaxLen: 20})
	never := func(in job.Instance, budget int64) (Schedule, error) {
		return NewSchedule(in), nil // schedules nothing ever
	}
	if _, err := MinBusyViaThroughput(in, never); err == nil {
		t.Fatal("expected error when solver never schedules all jobs")
	}
}

func TestOneSidedGreedySingleJob(t *testing.T) {
	in := job.NewInstance(3, [2]int64{5, 9})
	s, err := OneSidedGreedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost() != 4 || s.Machines() != 1 {
		t.Fatalf("cost %d machines %d", s.Cost(), s.Machines())
	}
}

func TestFindBestConsecutiveG1(t *testing.T) {
	// g=1 on a proper clique: every job on its own machine; DP must agree
	// with len(J).
	in := workload.ProperClique(2, workload.Config{N: 7, G: 1, MaxTime: 100, MaxLen: 20})
	s, err := FindBestConsecutive(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost() != in.TotalLen() {
		t.Fatalf("g=1 cost %d != len %d", s.Cost(), in.TotalLen())
	}
}

func TestBestCutGEqualsOneIsExactOnProper(t *testing.T) {
	// g=1: the only valid grouping on a clique is singletons. On general
	// proper instances BestCut with g=1 puts every job alone.
	in := workload.Proper(3, workload.Config{N: 8, G: 1, MaxTime: 100, MaxLen: 20})
	s, err := BestCut(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMostWeightConsecutiveG1(t *testing.T) {
	in := workload.ProperClique(5, workload.Config{N: 6, G: 1, MaxTime: 80, MaxLen: 20})
	for i := range in.Jobs {
		in.Jobs[i].Weight = int64(i%3 + 1)
	}
	full := in.TotalLen()
	s, err := MostWeightConsecutive(in, full)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Throughput() != len(in.Jobs) {
		t.Fatalf("full budget g=1 scheduled %d/%d", s.Throughput(), len(in.Jobs))
	}
}

func TestSolverThroughputReportsGreedyOnGeneral(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{2, 5}, [2]int64{100, 120})
	s, name := solveAuto(t, busytime.Request{Instance: in, Kind: busytime.KindMaxThroughput, Budget: 50})
	if name != "greedy-throughput" {
		t.Fatalf("dispatch = %q", name)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
