package registry

import (
	"context"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/online"
	"repro/internal/setcover"
)

// Machine-checkable guarantee factors shared by several registrations.
var (
	// exactRatio is the factor of an optimal algorithm.
	exactRatio = func(int) float64 { return 1 }
	// gRatio is the Observation 2.1 factor of any schedule: cost = len(J)
	// ≤ g·OPT, the Proposition 2.1 naive bound.
	gRatio = func(g int) float64 { return float64(g) }
	// firstFitRatio is the Flammini et al. [13] general-instance bound.
	firstFitRatio = func(int) float64 { return 4 }
	// bestCutRatio is the Theorem 3.1 bound for proper instances.
	bestCutRatio = func(g int) float64 { return 2 - 1/float64(g) }
	// setCoverRatio is the provable bound of the shipped CliqueSetCover:
	// the plain-span greedy's classical H_g (span weights are monotone
	// under subsets, so cover cost ≤ H_g·OPT carries to the schedule).
	// The paper's sharper Lemma 3.2 bound g·H_g/(H_g+g−1) relies on an
	// H_g guarantee for the modified-weight partition step, which fails
	// because g·span−len is not subset-monotone: on the two-job clique
	// {[127,131), [120,130)} with g = 2 (fuzz-found, committed as
	// testdata/fuzz/FuzzMinBusy/seed-setcover-h-g-ratio) the combined
	// algorithm pays 14 against OPT = 11, exceeding 1.2·OPT. E2 still
	// tabulates the paper bound empirically; the conformance harness
	// checks the bound proven for this implementation.
	setCoverRatio = func(g int) float64 { return setcover.Harmonic(g) }
	// cliqueThroughputRatio is the Theorem 4.1 bound: tput ≥ tput*/4.
	cliqueThroughputRatio = func(int) float64 { return 4 }
)

// The built-in algorithm catalogue. Canonical names are the names auto
// dispatch reports; aliases cover the historical CLI spellings so
// existing invocations keep working. Strengths encode the dispatch
// preference the Solver's auto dispatch walks (ForAll): exact
// class-specific algorithms above approximations above baselines.
func init() {
	minBusy := func(fn func(job.Instance) core.Schedule) func(context.Context, job.Instance) (core.Schedule, error) {
		return func(_ context.Context, in job.Instance) (core.Schedule, error) { return fn(in), nil }
	}
	minBusyErr := func(fn func(job.Instance) (core.Schedule, error)) func(context.Context, job.Instance) (core.Schedule, error) {
		return func(_ context.Context, in job.Instance) (core.Schedule, error) { return fn(in) }
	}
	tput := func(fn func(job.Instance, int64) (core.Schedule, error)) func(context.Context, job.Instance, int64) (core.Schedule, error) {
		return func(_ context.Context, in job.Instance, budget int64) (core.Schedule, error) { return fn(in, budget) }
	}

	// MinBusy algorithms, weakest to strongest.
	MustRegister(Algorithm{
		Name: "naive-per-job", Aliases: []string{"naive"}, Kind: MinBusy,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "g", Ratio: gRatio, Ref: "Proposition 2.1", Strength: 0,
		SolveMinBusy: minBusy(core.NaivePerJob),
	})
	MustRegister(Algorithm{
		Name: "first-fit", Aliases: []string{"firstfit", "ff", "first-fit-fast", "firstfitfast"}, Kind: MinBusy,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "4 (2 on proper and clique)", Ratio: firstFitRatio, Ref: "Flammini et al. [13]", Strength: 10,
		SolveMinBusy: minBusy(core.FirstFit),
	})
	MustRegister(Algorithm{
		Name: "best-cut", Aliases: []string{"bestcut"}, Kind: MinBusy,
		Classes:   []igraph.Class{igraph.Proper},
		Guarantee: "2 − 1/g", Ratio: bestCutRatio, Ref: "Theorem 3.1, Algorithm 1", Strength: 20,
		SolveMinBusy: minBusyErr(core.BestCut),
	})
	MustRegister(Algorithm{
		Name: "clique-set-cover", Aliases: []string{"setcover"}, Kind: MinBusy,
		Classes:   []igraph.Class{igraph.Clique},
		Guarantee: "H_g proven (paper claims g·H_g/(H_g+g−1))", Ratio: setCoverRatio, Ref: "Lemma 3.2", Strength: 30,
		SolveMinBusy: core.CliqueSetCover,
	})
	MustRegister(Algorithm{
		Name: "clique-matching", Aliases: []string{"matching"}, Kind: MinBusy,
		Classes: []igraph.Class{igraph.Clique},
		MinG:    2, MaxG: 2,
		Guarantee: "exact (g = 2)", Ratio: exactRatio, Exact: true, Ref: "Lemma 3.1", Strength: 40,
		SolveMinBusy: core.CliqueMatching,
	})
	MustRegister(Algorithm{
		Name: "find-best-consecutive", Aliases: []string{"consecutive"}, Kind: MinBusy,
		Classes:   []igraph.Class{igraph.ProperClique},
		Guarantee: "exact", Ratio: exactRatio, Exact: true, Ref: "Theorem 3.2, Algorithm 2", Strength: 50,
		SolveMinBusy: minBusyErr(core.FindBestConsecutive),
	})
	MustRegister(Algorithm{
		Name: "one-sided-greedy", Aliases: []string{"onesided"}, Kind: MinBusy,
		Classes:   []igraph.Class{igraph.OneSidedClique},
		Guarantee: "exact", Ratio: exactRatio, Exact: true, Ref: "Observation 3.1", Strength: 60,
		SolveMinBusy: minBusyErr(core.OneSidedGreedy),
	})
	MustRegister(Algorithm{
		Name: "exact", Aliases: []string{"exact-min-busy"}, Kind: MinBusy,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "exact (n ≤ 18)", Ratio: exactRatio, Exact: true, Oracle: true, Ref: "subset DP oracle",
		SolveMinBusy: exact.MinBusy,
	})

	// MaxThroughput algorithms.
	MustRegister(Algorithm{
		Name: "greedy-throughput", Aliases: []string{"greedy"}, Kind: MaxThroughput,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "heuristic", Ref: "general fallback (open question)", Strength: 10,
		SolveThroughput: func(_ context.Context, in job.Instance, budget int64) (core.Schedule, error) {
			return core.GreedyThroughput(in, budget), nil
		},
	})
	MustRegister(Algorithm{
		Name: "clique-throughput", Kind: MaxThroughput,
		Classes:   []igraph.Class{igraph.Clique},
		Guarantee: "4", Ratio: cliqueThroughputRatio, Ref: "Theorem 4.1, Algorithms 5–6", Strength: 30,
		SolveThroughput: tput(core.CliqueThroughput),
	})
	MustRegister(Algorithm{
		Name: "most-weight-consecutive", Kind: MaxThroughput,
		Classes:   []igraph.Class{igraph.ProperClique},
		Guarantee: "exact (weighted)", Ratio: exactRatio, Weighted: true, Exact: true, Ref: "Section 5 extension", Strength: 45,
		SolveThroughput: tput(core.MostWeightConsecutive),
	})
	MustRegister(Algorithm{
		Name: "most-throughput-consecutive", Kind: MaxThroughput,
		Classes:   []igraph.Class{igraph.ProperClique},
		Guarantee: "exact", Ratio: exactRatio, Exact: true, Ref: "Theorem 4.2", Strength: 50,
		SolveThroughput: tput(core.MostThroughputConsecutive),
	})
	MustRegister(Algorithm{
		Name: "one-sided-weight-throughput", Kind: MaxThroughput,
		Classes:   []igraph.Class{igraph.OneSidedClique},
		Guarantee: "exact (weighted)", Ratio: exactRatio, Weighted: true, Exact: true, Ref: "Section 5 extension", Strength: 55,
		SolveThroughput: tput(core.OneSidedWeightThroughput),
	})
	MustRegister(Algorithm{
		Name: "one-sided-throughput", Kind: MaxThroughput,
		Classes:   []igraph.Class{igraph.OneSidedClique},
		Guarantee: "exact", Ratio: exactRatio, Exact: true, Ref: "Proposition 4.1", Strength: 60,
		SolveThroughput: tput(core.OneSidedThroughput),
	})
	MustRegister(Algorithm{
		Name: "exact-throughput", Aliases: []string{"throughput-exact"}, Kind: MaxThroughput,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "exact (n ≤ 18)", Ratio: exactRatio, Exact: true, Oracle: true, Ref: "subset DP oracle",
		SolveThroughput: exact.MaxThroughput,
	})
	MustRegister(Algorithm{
		Name: "exact-weight-throughput", Aliases: []string{"weight-exact"}, Kind: MaxThroughput,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "exact weighted (n ≤ 18)", Ratio: exactRatio, Weighted: true, Exact: true, Oracle: true, Ref: "subset DP oracle",
		SolveThroughput: exact.MaxWeightThroughput,
	})

	// Two-dimensional MinBusy algorithms (Section 3.4).
	MustRegister(Algorithm{
		Name: "naive-2d", Aliases: []string{"naive", "naive-per-job-2d"}, Kind: MinBusy2D,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "g", Ratio: gRatio, Ref: "per-job baseline", Strength: 0,
		SolveRect: func(_ context.Context, in job.RectInstance) (core.RectSchedule, error) {
			return core.NaivePerJob2D(in), nil
		},
	})
	MustRegister(Algorithm{
		Name: "first-fit-2d", Aliases: []string{"ff2d"}, Kind: MinBusy2D,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "6γ₁+3 … 6γ₁+4", Ref: "Lemma 3.5, Algorithm 3", Strength: 10,
		SolveRect: func(_ context.Context, in job.RectInstance) (core.RectSchedule, error) {
			return core.FirstFit2D(in), nil
		},
	})
	MustRegister(Algorithm{
		Name: "bucket-first-fit", Aliases: []string{"bucket"}, Kind: MinBusy2D,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "min(g, O(log min(γ₁,γ₂)))", Ref: "Theorem 3.3, Algorithm 4 (β = 3.3)", Strength: 20,
		SolveRect: func(_ context.Context, in job.RectInstance) (core.RectSchedule, error) {
			return core.BucketFirstFitAuto(in)
		},
	})
	MustRegister(Algorithm{
		Name: "exact-2d", Aliases: []string{"exact-rect"}, Kind: MinBusy2D,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "exact (n ≤ 7)", Ratio: exactRatio, Exact: true, Oracle: true,
		Ref:       "exhaustive rectangle assignment oracle",
		SolveRect: exact.MinBusyRect,
	})

	// Online strategies. Strength orders the auto pick: FirstFit tracks
	// the offline cost closest on stochastic arrivals, Buckets bounds the
	// stretch of mixed-length machines, Naive is the g-competitive floor.
	MustRegister(Algorithm{
		Name: "online-naive", Aliases: []string{"naive"}, Kind: Online,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "g-competitive", Ratio: gRatio, Ref: "online Proposition 2.1 baseline", Strength: 0,
		NewStrategy: online.Naive,
	})
	MustRegister(Algorithm{
		Name: "online-buckets", Aliases: []string{"buckets"}, Kind: Online,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "empirical (doubling length classes)", Ref: "Albers–van der Heijden-style bucketing", Strength: 10,
		NewStrategy: online.Buckets,
	})
	MustRegister(Algorithm{
		Name: "online-firstfit", Aliases: []string{"firstfit"}, Kind: Online,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "empirical (Ω(g) adversarial lower bound)", Ref: "online FirstFit", Strength: 20,
		NewStrategy: online.FirstFit,
	})
	MustRegister(Algorithm{
		Name: "online-bestfit", Aliases: []string{"bestfit"}, Kind: Online,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "empirical (marginal-cost greedy)", Ref: "online BestFit (min busy-time extension)", Strength: 30,
		NewStrategy: online.BestFit,
	})
	MustRegister(Algorithm{
		Name: "online-budget", Aliases: []string{"budget", "admission"}, Kind: Online,
		Classes:   []igraph.Class{igraph.General},
		Guarantee: "empirical (BestFit + weighted budget admission; never overspends)",
		Ref:       "weighted online throughput with admission control (Section 5 weights)", Strength: 5,
		NewStrategy: func() online.Strategy { return online.Budgeted(0) },
	})
}
