package busytime_test

import (
	"context"
	"testing"

	busytime "repro"
	"repro/internal/core"
)

// BenchmarkSolverDispatch measures the full Solver path — registry
// lookup, classification, component split, result assembly — against
// calling the algorithm it dispatches to directly. CI uploads this pair
// for trend tracking without gating it: the gap is the Solver's own
// work, not noise.
func BenchmarkSolverDispatch(b *testing.B) {
	in := busytime.GenerateProper(1, busytime.WorkloadConfig{N: 200, G: 4, MaxTime: 2000, MaxLen: 100})
	solver := busytime.NewSolver()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solver.Solve(ctx, busytime.Request{Instance: in})
		if err != nil {
			b.Fatal(err)
		}
		if res.Cost == 0 {
			b.Fatal("zero cost")
		}
	}
}

// BenchmarkSolverDispatchDirect is the baseline: core.BestCut, the
// algorithm auto dispatch picks for proper components, called once on the
// whole proper instance with no classification, component split,
// registry or Result assembly.
func BenchmarkSolverDispatchDirect(b *testing.B) {
	in := busytime.GenerateProper(1, busytime.WorkloadConfig{N: 200, G: 4, MaxTime: 2000, MaxLen: 100})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.BestCut(in)
		if err != nil {
			b.Fatal(err)
		}
		if s.Cost() == 0 {
			b.Fatal("zero cost")
		}
	}
}

// batchRequests builds the 64-instance batch shared by the SolveBatch
// benchmarks: large enough that the ≥ 32-instance acceptance comparison
// holds, varied seeds so no two requests are identical.
func batchRequests(n int) []busytime.Request {
	reqs := make([]busytime.Request, n)
	for i := range reqs {
		reqs[i] = busytime.Request{Instance: busytime.GenerateProper(int64(i+1),
			busytime.WorkloadConfig{N: 200, G: 4, MaxTime: 2000, MaxLen: 100})}
	}
	return reqs
}

// BenchmarkSolveBatch measures the batching path: one SolveBatch call
// sharding 64 requests across the worker pool. CI uploads this next to
// BenchmarkSolveSequential; batching must beat N sequential Solve calls
// on ≥ 32-instance batches.
func BenchmarkSolveBatch(b *testing.B) {
	reqs := batchRequests(64)
	solver := busytime.NewSolver(busytime.WithParallelism(0))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := solver.SolveBatch(ctx, reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkSolveSequential is the baseline the batch path must beat: the
// same 64 requests through one Solve call each.
func BenchmarkSolveSequential(b *testing.B) {
	reqs := batchRequests(64)
	solver := busytime.NewSolver()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			if _, err := solver.Solve(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// reoptBenchDelta builds the single-job delta the reoptimization
// benchmarks solve: the base with its latest-starting job replaced by an
// interior job, so the canonical origin — and with it the near-hit
// detection — is preserved.
func reoptBenchDelta(base busytime.Instance) busytime.Instance {
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
	delta.Jobs[latest] = busytime.NewJob(2_000_000, minStart+31, minStart+83)
	return delta
}

// BenchmarkReoptimize measures the warm-started delta solve at n=1000: a
// single-job delta repaired against the cached base via BaseID. CI
// uploads this next to BenchmarkReoptimizeScratch; the repair must beat
// the from-scratch solve of the same instance (E18 tracks the same
// claim across delta sizes). The explicit BaseID keeps every iteration
// on the repair path — an exact fingerprint lookup would upgrade the
// second and later iterations to hits and benchmark the wrong thing.
func BenchmarkReoptimize(b *testing.B) {
	base := busytime.GenerateGeneral(1, busytime.WorkloadConfig{N: 1000, G: 4, MaxTime: 8000, MaxLen: 120})
	solver := busytime.NewSolver(busytime.WithReoptimization(8))
	ctx := context.Background()
	cold, err := solver.Solve(ctx, busytime.Request{Instance: base})
	if err != nil {
		b.Fatal(err)
	}
	delta := reoptBenchDelta(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solver.Solve(ctx, busytime.Request{Instance: delta, BaseID: cold.ID})
		if err != nil {
			b.Fatal(err)
		}
		if res.CacheOutcome != busytime.CacheRepair {
			b.Fatalf("outcome = %q, want %q", res.CacheOutcome, busytime.CacheRepair)
		}
	}
}

// BenchmarkReoptimizeScratch is the baseline the repair path must beat:
// the same single-job-delta instance solved cold every iteration.
func BenchmarkReoptimizeScratch(b *testing.B) {
	base := busytime.GenerateGeneral(1, busytime.WorkloadConfig{N: 1000, G: 4, MaxTime: 8000, MaxLen: 120})
	delta := reoptBenchDelta(base)
	solver := busytime.NewSolver()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(ctx, busytime.Request{Instance: delta}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverDispatchSmall isolates the dispatch overhead itself on
// a tiny instance where the algorithm's own work is negligible.
func BenchmarkSolverDispatchSmall(b *testing.B) {
	in := busytime.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15}, [2]int64{8, 20})
	solver := busytime.NewSolver()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(ctx, busytime.Request{Instance: in}); err != nil {
			b.Fatal(err)
		}
	}
}
