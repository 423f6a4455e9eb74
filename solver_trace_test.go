package busytime_test

import (
	"context"
	"testing"

	busytime "repro"
	"repro/internal/trace"
)

// traceInstance is a small general instance shared by the trace tests.
func traceInstance() busytime.Instance {
	return busytime.GenerateGeneral(3, busytime.WorkloadConfig{N: 40, G: 3, MaxTime: 400, MaxLen: 60})
}

func TestSolveUntracedHasNilTrace(t *testing.T) {
	solver := busytime.NewSolver()
	res, err := solver.Solve(context.Background(), busytime.Request{Instance: traceInstance()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("untraced Solve attached a trace: %+v", res.Trace)
	}
}

func TestSolveTracePhases(t *testing.T) {
	solver := busytime.NewSolver()
	ctx := trace.Enable(context.Background())
	res, err := solver.Solve(ctx, busytime.Request{Instance: traceInstance()})
	if err != nil {
		t.Fatal(err)
	}
	n := res.Trace
	if n == nil {
		t.Fatal("traced Solve returned nil Result.Trace")
	}
	if n.Name != "solve" {
		t.Fatalf("root span %q, want solve", n.Name)
	}
	for _, phase := range []string{"classify", "placement", "bound"} {
		if n.Find(phase) == nil {
			t.Errorf("phase span %q missing from trace", phase)
		}
	}
	if got := n.Attr("algorithm"); got != res.Algorithm {
		t.Errorf("algorithm attr %q, want %q", got, res.Algorithm)
	}
	if n.Find("placement").Attr("algorithm") == "" {
		t.Error("placement span has no algorithm attr")
	}
	var sum int64
	for _, c := range n.Children {
		sum += c.DurationNS
	}
	if sum > n.DurationNS {
		t.Errorf("phase durations sum %dns > root %dns", sum, n.DurationNS)
	}
}

func TestSolveTraceLocalSearchPhase(t *testing.T) {
	solver := busytime.NewSolver(busytime.WithLocalSearch(2))
	ctx := trace.Enable(context.Background())
	res, err := solver.Solve(ctx, busytime.Request{Instance: traceInstance()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Find("local-search") == nil {
		t.Fatal("local-search phase missing from trace")
	}
}

func TestSolveBatchPerItemTraces(t *testing.T) {
	reqs := make([]busytime.Request, 4)
	for i := range reqs {
		reqs[i] = busytime.Request{Instance: busytime.GenerateProper(int64(i+1),
			busytime.WorkloadConfig{N: 20, G: 3, MaxTime: 200, MaxLen: 40})}
	}
	solver := busytime.NewSolver(busytime.WithParallelism(0))
	ctx := trace.Enable(context.Background())
	results, err := solver.SolveBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
		if res.Trace == nil {
			t.Fatalf("item %d has no trace", i)
		}
		if res.Trace.Name != "solve" || res.Trace.Find("placement") == nil {
			t.Fatalf("item %d trace malformed: %+v", i, res.Trace)
		}
	}
}

func TestSolveReoptTracePhases(t *testing.T) {
	base := busytime.GenerateGeneral(1, busytime.WorkloadConfig{N: 60, G: 4, MaxTime: 600, MaxLen: 80})
	solver := busytime.NewSolver(busytime.WithReoptimization(4))
	ctx := trace.Enable(context.Background())

	cold, err := solver.Solve(ctx, busytime.Request{Instance: base})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheOutcome != busytime.CacheMiss {
		t.Fatalf("cold outcome %q", cold.CacheOutcome)
	}
	if cold.Trace.Find("reopt.fingerprint") == nil {
		t.Fatal("miss trace lacks reopt.fingerprint span")
	}
	if got := cold.Trace.Attr("cache"); got != busytime.CacheMiss {
		t.Fatalf("cache attr %q, want miss", got)
	}

	// A single-job delta with an explicit BaseID repairs warm.
	delta := base.Clone()
	latest, minStart := 0, delta.Jobs[0].Interval.Start
	for i, j := range delta.Jobs {
		if j.Interval.Start > delta.Jobs[latest].Interval.Start {
			latest = i
		}
		if j.Interval.Start < minStart {
			minStart = j.Interval.Start
		}
	}
	delta.Jobs[latest] = busytime.NewJob(99_999, minStart+7, minStart+31)
	rep, err := solver.Solve(ctx, busytime.Request{Instance: delta, BaseID: cold.ID})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheOutcome != busytime.CacheRepair {
		t.Fatalf("delta outcome %q, want repair", rep.CacheOutcome)
	}
	if rep.Trace.Find("reopt.repair") == nil {
		t.Fatal("repair trace lacks reopt.repair span")
	}
}
