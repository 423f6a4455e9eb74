// Benchmarks regenerating every experiment of busysim experiments (one bench
// per paper table/figure, named after the experiment index) plus scaling
// benches documenting the implemented complexities.
//
// Run with:
//
//	go test -bench=. -benchmem
package busytime_test

import (
	"context"
	"fmt"
	"testing"

	busytime "repro"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/localsearch"
	"repro/internal/matching"
	"repro/internal/topology/ring"
	"repro/internal/workload"
)

// E1 — Lemma 3.1: clique g=2 exact matching.
func BenchmarkE1CliqueMatching(b *testing.B) {
	in := workload.Clique(1, workload.Config{N: 100, G: 2, MaxTime: 1000, MaxLen: 300})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.CliqueMatching(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}

// E2 — Lemma 3.2: clique set-cover approximation.
func BenchmarkE2CliqueSetCover(b *testing.B) {
	in := workload.Clique(1, workload.Config{N: 30, G: 3, MaxTime: 1000, MaxLen: 300})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.CliqueSetCover(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}

// E3 — Theorem 3.1: BestCut on proper instances.
func BenchmarkE3BestCut(b *testing.B) {
	in := workload.Proper(1, workload.Config{N: 1000, G: 4, MaxTime: 10000, MaxLen: 300})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.BestCut(in); err != nil {
			b.Fatal(err)
		}
	}
}

// E4 — Theorem 3.2: proper clique MinBusy DP.
func BenchmarkE4ProperCliqueDP(b *testing.B) {
	in := workload.ProperClique(1, workload.Config{N: 1000, G: 4, MaxTime: 10000, MaxLen: 300})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.FindBestConsecutive(in); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 — Figure 3 / Lemma 3.5: FirstFit2D on the adversarial family.
func BenchmarkE5Fig3LowerBound(b *testing.B) {
	in, err := workload.Figure3(12, 2, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	want := workload.Figure3FirstFitCost(12, 2, 1000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := core.FirstFit2D(in)
		if s.Cost() != want {
			b.Fatalf("cost %d, prediction %d", s.Cost(), want)
		}
	}
}

// E6 — Theorem 3.3: BucketFirstFit on bounded-γ rectangles.
func BenchmarkE6BucketFirstFit(b *testing.B) {
	in := workload.BoundedGammaRects(1, workload.Config{N: 200, G: 4, MaxTime: 1000, MaxLen: 100}, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.BucketFirstFitAuto(in); err != nil {
			b.Fatal(err)
		}
	}
}

// E7 — Theorem 4.1: clique throughput 4-approximation.
func BenchmarkE7CliqueThroughput(b *testing.B) {
	in := workload.Clique(1, workload.Config{N: 200, G: 3, MaxTime: 1000, MaxLen: 300})
	budget := in.TotalLen() / 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.CliqueThroughput(in, budget); err != nil {
			b.Fatal(err)
		}
	}
}

// E8 — Theorem 4.2: proper clique throughput DP (and weighted variant).
func BenchmarkE8ThroughputDP(b *testing.B) {
	in := workload.ProperClique(1, workload.Config{N: 300, G: 3, MaxTime: 3000, MaxLen: 200})
	budget := in.TotalLen() / 3
	b.Run("unweighted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.MostThroughputConsecutive(in, budget); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("weighted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.MostWeightConsecutive(in, budget); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E9 — Observation 2.1 bounds: the Solver's auto dispatch on general
// workloads.
func BenchmarkE9Bounds(b *testing.B) {
	in := workload.General(1, workload.Config{N: 500, G: 4, MaxTime: 5000, MaxLen: 300})
	solver := busytime.NewSolver()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := solver.Solve(ctx, busytime.Request{Instance: in})
		if err != nil {
			b.Fatal(err)
		}
		if res.Cost < in.LowerBound() {
			b.Fatal("cost below lower bound")
		}
	}
}

// E10 — Proposition 2.2: MinBusy via MaxThroughput binary search.
func BenchmarkE10Reduction(b *testing.B) {
	in := workload.ProperClique(1, workload.Config{N: 200, G: 3, MaxTime: 2000, MaxLen: 150})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.MinBusyViaThroughput(in, core.MostThroughputConsecutive); err != nil {
			b.Fatal(err)
		}
	}
}

// E11 — Observation 3.1 / Proposition 4.1: one-sided exact algorithms.
func BenchmarkE11OneSided(b *testing.B) {
	in := workload.OneSided(1, workload.Config{N: 1000, G: 5, MaxTime: 5000, MaxLen: 400}, true)
	budget := in.TotalLen() / 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.OneSidedGreedy(in); err != nil {
			b.Fatal(err)
		}
		if _, err := core.OneSidedThroughput(in, budget); err != nil {
			b.Fatal(err)
		}
	}
}

// E13 — Section 5 extensions: ring FirstFit and demand-aware FirstFit.
func BenchmarkE13Extensions(b *testing.B) {
	b.Run("ring-firstfit", func(b *testing.B) {
		in := ring.Instance{C: 1000, G: 4}
		for i := 0; i < 150; i++ {
			v := int64(i)
			in.Jobs = append(in.Jobs, ring.Job{
				ID:     i,
				Arc:    ring.Arc{Start: (v * 97) % 1000, Length: 1 + (v*53)%400},
				TStart: (v * 31) % 200,
				TEnd:   (v*31)%200 + 1 + (v*17)%100,
			})
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ring.FirstFit(in)
		}
	})
	b.Run("demand-firstfit", func(b *testing.B) {
		base := workload.General(1, workload.Config{N: 300, G: 4, MaxTime: 3000, MaxLen: 200})
		in := workload.WithDemands(2, base, 3)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			demand.FirstFit(in)
		}
	})
}

// BenchmarkExperimentSuite times the full table regeneration (what
// busysim experiments does), one experiment per sub-bench with reduced seeds.
func BenchmarkExperimentSuite(b *testing.B) {
	subs := []struct {
		name string
		run  func()
	}{
		{"E1", func() { experiments.E1(5) }},
		{"E2", func() { experiments.E2(5) }},
		{"E3", func() { experiments.E3(5) }},
		{"E4", func() { experiments.E4(5) }},
		{"E5", func() { experiments.E5() }},
		{"E7", func() { experiments.E7(5) }},
		{"E8", func() { experiments.E8(5) }},
	}
	for _, s := range subs {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.run()
			}
		})
	}
}

// Scaling benches: document the implemented complexity of each major
// algorithm across instance sizes.

func BenchmarkScaleBestCut(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		in := workload.Proper(1, workload.Config{N: n, G: 4, MaxTime: int64(n) * 10, MaxLen: 300})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.BestCut(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScaleProperCliqueDP(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		in := workload.ProperClique(1, workload.Config{N: n, G: 4, MaxTime: int64(n) * 10, MaxLen: 300})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.FindBestConsecutive(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScaleThroughputDP(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		in := workload.ProperClique(1, workload.Config{N: n, G: 3, MaxTime: int64(n) * 10, MaxLen: 200})
		budget := in.TotalLen() / 3
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.MostThroughputConsecutive(in, budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScaleMatching(b *testing.B) {
	for _, n := range []int{20, 60, 140} {
		in := workload.Clique(1, workload.Config{N: n, G: 2, MaxTime: 1000, MaxLen: 300})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.CliqueMatching(context.Background(), in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScaleBlossomRaw(b *testing.B) {
	for _, n := range []int{16, 48, 96} {
		var edges []matching.Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, matching.Edge{U: i, V: j, Weight: int64((i*j)%97 + 1)})
			}
		}
		b.Run(fmt.Sprintf("K%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := matching.Max(context.Background(), n, edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScaleFirstFit(b *testing.B) {
	for _, n := range []int{100, 1000, 4000} {
		in := workload.General(1, workload.Config{N: n, G: 4, MaxTime: int64(n) * 5, MaxLen: 200})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.FirstFit(in)
			}
		})
	}
}

// E15 — local-search post-optimization.
func BenchmarkE15LocalSearch(b *testing.B) {
	in := workload.General(1, workload.Config{N: 200, G: 3, MaxTime: 1500, MaxLen: 120})
	base := core.FirstFit(in)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := localsearch.Improve(base, 0)
		if s.Cost() > base.Cost() {
			b.Fatal("local search worsened the schedule")
		}
	}
}

func BenchmarkScaleExactOracle(b *testing.B) {
	for _, n := range []int{10, 14, 17} {
		in := workload.General(1, workload.Config{N: n, G: 3, MaxTime: 100, MaxLen: 40})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exact.MinBusyCost(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScaleUnionArea(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		in := workload.BoundedGammaRects(1, workload.Config{N: n, G: 4, MaxTime: 2000, MaxLen: 200}, 8)
		rects := in.Rects()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = in.SpanArea()
			}
			_ = rects
		})
	}
}
