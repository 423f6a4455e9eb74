package busytime_test

import (
	"context"
	"slices"
	"testing"
	"time"

	busytime "repro"
	"repro/internal/trace"
)

// traceBenchInstance is the n=1000 instance the tracing-overhead
// benchmark solves — the same shape as the reoptimization benchmarks.
func traceBenchInstance() busytime.Instance {
	return busytime.GenerateGeneral(1, busytime.WorkloadConfig{N: 1000, G: 4, MaxTime: 8000, MaxLen: 120})
}

// BenchmarkTraceOverhead pins the cost of always-on tracing, the
// configuration busyd serves every request with. Each iteration solves
// the same instance once untraced and once on a trace-enabled context,
// swapping their order every iteration so that neither side always runs
// second, and the benchmark reports the median over iterations of the
// traced time over the untraced time as traced/untraced. The two solves
// of an iteration run back to back, so host noise hits both alike, and
// the median drops the iterations a stall hit on one side only. CI runs
// it five times and fails the build when the median of the five
// readings exceeds 1.05: the span tree is a handful of allocations per
// solve, and it must stay that way.
func BenchmarkTraceOverhead(b *testing.B) {
	in := traceBenchInstance()
	solver := busytime.NewSolver()
	plain := context.Background()
	traced := trace.Enable(plain)
	solve := func(ctx context.Context, wantTrace bool) time.Duration {
		start := time.Now()
		res, err := solver.Solve(ctx, busytime.Request{Instance: in})
		elapsed := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if (res.Trace != nil) != wantTrace {
			b.Fatalf("solve recorded a trace: %v, want %v", res.Trace != nil, wantTrace)
		}
		return elapsed
	}
	ratios := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var untracedTime, tracedTime time.Duration
		if i%2 == 0 {
			untracedTime = solve(plain, false)
			tracedTime = solve(traced, true)
		} else {
			tracedTime = solve(traced, true)
			untracedTime = solve(plain, false)
		}
		ratios = append(ratios, float64(tracedTime)/float64(untracedTime))
	}
	slices.Sort(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "traced/untraced")
}
