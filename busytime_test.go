package busytime_test

import (
	"context"
	"testing"

	busytime "repro"
)

// solve runs one request through a Solver built from opts.
func solve(t *testing.T, req busytime.Request, opts ...busytime.SolverOption) busytime.Result {
	t.Helper()
	res, err := busytime.NewSolver(opts...).Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// onlineStrategy builds a registered online strategy by name.
func onlineStrategy(t *testing.T, name string) busytime.OnlineStrategy {
	t.Helper()
	alg, err := busytime.LookupAlgorithmKind(busytime.KindOnline, name)
	if err != nil {
		t.Fatal(err)
	}
	return alg.NewStrategy()
}

func TestQuickstartFlow(t *testing.T) {
	in := busytime.NewInstance(2,
		[2]int64{0, 10}, [2]int64{5, 15}, [2]int64{8, 20}, [2]int64{12, 25})
	res := solve(t, busytime.Request{Instance: in})
	s, alg := res.Schedule, res.Algorithm
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Throughput() != 4 {
		t.Fatalf("MinBusy left jobs unscheduled")
	}
	if alg == "" {
		t.Fatal("no algorithm name reported")
	}
	if s.Cost() < in.LowerBound() || s.Cost() > in.TotalLen() {
		t.Fatalf("cost %d outside Observation 2.1 bounds", s.Cost())
	}
}

func TestMaxThroughputDispatch(t *testing.T) {
	cases := []struct {
		in   busytime.Instance
		want string
	}{
		{busytime.GenerateOneSided(1, busytime.WorkloadConfig{N: 6, G: 2, MaxTime: 50, MaxLen: 20}, true), "one-sided-throughput"},
		{busytime.GenerateProperClique(1, busytime.WorkloadConfig{N: 6, G: 2, MaxTime: 50, MaxLen: 20}), "most-throughput-consecutive"},
		{busytime.NewInstance(2, [2]int64{0, 20}, [2]int64{1, 8}, [2]int64{2, 9}), "clique-throughput"},
		{busytime.NewInstance(2, [2]int64{0, 10}, [2]int64{2, 5}, [2]int64{40, 50}), "greedy-throughput"},
	}
	for i, c := range cases {
		res := solve(t, busytime.Request{Instance: c.in, Kind: busytime.KindMaxThroughput, Budget: 1000})
		if res.Algorithm != c.want {
			t.Errorf("case %d: dispatched to %q, want %q", i, res.Algorithm, c.want)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestGreedyThroughputRespectsBudget(t *testing.T) {
	greedy := busytime.WithAlgorithm("greedy-throughput")
	for seed := int64(0); seed < 15; seed++ {
		in := busytime.GenerateGeneral(seed, busytime.WorkloadConfig{N: 15, G: 2, MaxTime: 80, MaxLen: 25})
		for _, budget := range []int64{0, 10, 50, 200, 10000} {
			s := solve(t, busytime.Request{Instance: in, Kind: busytime.KindMaxThroughput, Budget: budget}, greedy).Schedule
			if err := s.Validate(); err != nil {
				t.Fatalf("seed %d budget %d: %v", seed, budget, err)
			}
			if s.Cost() > budget {
				t.Fatalf("seed %d: cost %d over budget %d", seed, s.Cost(), budget)
			}
		}
		// Generous budget must schedule everything.
		s := solve(t, busytime.Request{Instance: in, Kind: busytime.KindMaxThroughput, Budget: in.TotalLen()}, greedy).Schedule
		if s.Throughput() != len(in.Jobs) {
			t.Errorf("seed %d: full budget scheduled %d/%d", seed, s.Throughput(), len(in.Jobs))
		}
	}
}

func TestClassifyExported(t *testing.T) {
	in := busytime.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15})
	if c := busytime.Classify(in.Jobs); c != busytime.ClassProperClique {
		t.Errorf("Classify = %v", c)
	}
}

func TestExactOracleExported(t *testing.T) {
	in := busytime.NewInstance(2, [2]int64{0, 10}, [2]int64{0, 10}, [2]int64{0, 10})
	s := solve(t, busytime.Request{Instance: in}, busytime.WithAlgorithm("exact"))
	if s.Cost != 20 {
		t.Errorf("exact cost = %d, want 20", s.Cost)
	}
	ts := solve(t, busytime.Request{Instance: in, Kind: busytime.KindMaxThroughput, Budget: 10},
		busytime.WithAlgorithm("exact-throughput"))
	if ts.Scheduled != 2 {
		t.Errorf("exact throughput = %d, want 2", ts.Scheduled)
	}
}

func TestOnlineFacade(t *testing.T) {
	in := busytime.GenerateArrivals(1, busytime.WorkloadConfig{N: 14, G: 2, MaxTime: 80, MaxLen: 25})
	for _, name := range []string{"online-naive", "online-firstfit", "online-buckets"} {
		res := solve(t, busytime.Request{Instance: in, Kind: busytime.KindOnline}, busytime.WithAlgorithm(name))
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Schedule.Throughput() != len(in.Jobs) {
			t.Fatalf("%s: left jobs unscheduled", name)
		}
	}
	reports, err := busytime.CompareOnline(in, onlineStrategy(t, "online-firstfit"))
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].HasExact || reports[0].VsExact() < 1 {
		t.Errorf("bad report %+v", reports[0])
	}

	flex := []busytime.FlexJob{
		busytime.NewFlexJob(0, 0, 30, 10),
		busytime.NewFlexJob(1, 5, 40, 8),
	}
	res, err := busytime.ReplayFlexible(2, flex, busytime.StartAligned(), onlineStrategy(t, "online-firstfit"))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}

	adv, err := busytime.GenerateAdversarialOnline(3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := adv.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRectFacade(t *testing.T) {
	in, err := busytime.GenerateFigure3(4, 1, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"first-fit-2d", "bucket-first-fit"} {
		res := solve(t, busytime.Request{Rect: &in}, busytime.WithAlgorithm(name))
		if err := res.Rect.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestCompareReports(t *testing.T) {
	in := busytime.GenerateArrivals(3, busytime.WorkloadConfig{N: 12, G: 2, MaxTime: 80, MaxLen: 25})
	reports, err := busytime.CompareOnline(in, onlineStrategy(t, "online-naive"),
		onlineStrategy(t, "online-firstfit"), onlineStrategy(t, "online-buckets"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("%d reports, want 3", len(reports))
	}
	for _, r := range reports {
		if !r.HasExact {
			t.Fatalf("%s: exact oracle skipped on n=12", r.Strategy)
		}
		if r.VsExact() < 1.0 {
			t.Errorf("%s: online beat the optimum: ratio %.3f", r.Strategy, r.VsExact())
		}
		if r.VsOffline() <= 0 || r.VsLowerBound() < 1.0 {
			t.Errorf("%s: degenerate ratios %+v", r.Strategy, r)
		}
		if r.ExactCost < r.LowerBound || r.OfflineCost < r.ExactCost {
			t.Errorf("%s: inconsistent baselines %+v", r.Strategy, r)
		}
	}
	// Larger instances skip the exact oracle but still report.
	big := busytime.GenerateArrivals(3, busytime.WorkloadConfig{N: 40, G: 2, MaxTime: 200, MaxLen: 25})
	reports, err = busytime.CompareOnline(big, onlineStrategy(t, "online-firstfit"))
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].HasExact || reports[0].VsExact() != 0 {
		t.Errorf("exact oracle claimed on n=40: %+v", reports[0])
	}
}

// TestCompareOnlineAdmittedBound checks that a run which rejects
// arrivals is measured against the bound of the arrivals it admitted,
// the bound Solver.Solve reports for the same strategy and budget, so
// its cost never reads below its bound.
func TestCompareOnlineAdmittedBound(t *testing.T) {
	in := busytime.GenerateWeightedArrivals(3, busytime.WorkloadConfig{N: 40, G: 3, MaxTime: 200, MaxLen: 50})
	budget := in.LowerBound() * 3 / 2
	st := onlineStrategy(t, "online-budget")
	st.(busytime.OnlineBudgetSetter).SetBudget(budget)
	reports, err := busytime.CompareOnline(in, st)
	if err != nil {
		t.Fatal(err)
	}
	r := reports[0]
	if r.Rejected == 0 {
		t.Fatalf("online-budget at budget %d rejected nothing; the check needs rejections", budget)
	}
	if r.VsLowerBound() < 1 {
		t.Errorf("cost %d under lower bound %d: vs-LB %.3f", r.Cost, r.LowerBound, r.VsLowerBound())
	}
	res := solve(t, busytime.Request{Instance: in, Kind: busytime.KindOnline, Budget: budget},
		busytime.WithAlgorithm("online-budget"))
	if r.LowerBound != res.LowerBound || r.Cost != res.Cost {
		t.Errorf("report cost %d bound %d, Solver cost %d bound %d", r.Cost, r.LowerBound, res.Cost, res.LowerBound)
	}
}
