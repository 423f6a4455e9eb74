// Package experiments regenerates every table `busysim experiments`
// prints: one experiment per paper claim (theorem, lemma, figure), each
// measuring an implemented algorithm against the exact oracle or against
// the paper's closed-form predictions on seeded workloads.
//
// The experiment set is indexed E1…E18. Both `busysim experiments` and
// the root-level benchmarks drive these entry points, so the published
// numbers are regenerable with either `go test -bench` or the CLI.
//
// Experiments resolve their algorithms through internal/registry — the
// same catalogue the Solver dispatches on — so a renamed or unregistered
// algorithm fails loudly here instead of drifting, and the conformance
// experiment (E16) walks registry.List() directly: a newly registered
// algorithm shows up in the E16 table automatically.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	busytime "repro"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/exact"
	"repro/internal/job"
	"repro/internal/localsearch"
	"repro/internal/online"
	"repro/internal/parallel"
	"repro/internal/registry"
	"repro/internal/setcover"
	"repro/internal/stats"
	"repro/internal/topology/ring"
	"repro/internal/topology/tree"
	"repro/internal/workload"
)

// must adapts a MinBusy solve hook to a solver that panics on rejection:
// experiments generate instances the algorithm accepts by construction.
func must(solve func(context.Context, job.Instance) (core.Schedule, error)) func(job.Instance) core.Schedule {
	return func(in job.Instance) core.Schedule {
		s, err := solve(context.Background(), in)
		if err != nil {
			panic(err)
		}
		return s
	}
}

// minBusy resolves a registered MinBusy algorithm by canonical name.
// Experiments call algorithms through the registry so the measured code
// path is exactly what the Solver dispatches.
func minBusy(name string) func(job.Instance) core.Schedule {
	alg, err := registry.LookupKind(registry.MinBusy, name)
	if err != nil {
		panic(err)
	}
	return must(alg.SolveMinBusy)
}

// autoMinBusy is the Solver's MinBusy auto dispatch, the schedule an
// unpinned request gets.
func autoMinBusy(in job.Instance) core.Schedule {
	res, err := busytime.NewSolver().Solve(context.Background(), busytime.Request{Instance: in})
	if err != nil {
		panic(err)
	}
	return res.Schedule
}

// throughputSolve resolves a registered MaxThroughput algorithm's hook.
func throughputSolve(name string) func(job.Instance, int64) (core.Schedule, error) {
	alg, err := registry.LookupKind(registry.MaxThroughput, name)
	if err != nil {
		panic(err)
	}
	return func(in job.Instance, budget int64) (core.Schedule, error) {
		return alg.SolveThroughput(context.Background(), in, budget)
	}
}

// Result is one experiment's rendered outcome.
type Result struct {
	ID    string
	Title string
	Claim string // the paper's claim being measured
	Table *stats.Table
	Notes []string
}

// String renders the result as the block `busysim experiments` prints.
func (r Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\nClaim: %s\n%s", r.ID, r.Title, r.Claim, r.Table.String())
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Seeds is the default number of random instances per configuration.
const Seeds = 40

// ratioStats collects cost ratios alg/opt across seeds.
func ratioStats(ratios []float64) (mean, max float64) {
	s := stats.Summarize(ratios)
	return s.Mean, s.Max
}

// vsOpt generates the instances of seeds 0…seeds−1 in parallel, solves
// each once with exact.MinBusyCost and with every solver, and returns one
// column of cost/OPT ratios per solver, in seed order.
func vsOpt(seeds int, gen func(seed int64) job.Instance, solvers ...func(job.Instance) core.Schedule) [][]float64 {
	cols := make([][]float64, len(solvers))
	for i := range cols {
		cols[i] = make([]float64, seeds)
	}
	parallel.ForEach(seeds, 0, func(seed int) {
		in := gen(int64(seed))
		opt, err := exact.MinBusyCost(in)
		if err != nil {
			panic(err)
		}
		for i, solve := range solvers {
			cols[i][seed] = stats.Ratio(solve(in).Cost(), opt)
		}
	})
	return cols
}

// vsMaxThroughput generates the instances of seeds 0…seeds−1 in
// parallel and, for each fraction of an instance's exact MinBusy cost
// taken as the budget, solves it once with exact.MaxThroughput (with
// exact.MaxWeightThroughput when weighted) and with every solver. It
// returns one column of throughput/OPT ratios per solver, fraction by
// fraction in seed order: seed s at fracs[k] is entry k·seeds+s. A
// budget that admits no job scores 1.
func vsMaxThroughput(seeds int, gen func(seed int64) job.Instance, fracs []float64, weighted bool,
	solvers ...func(job.Instance, int64) (core.Schedule, error)) [][]float64 {
	oracle, measure := exact.MaxThroughput, func(s core.Schedule) int64 { return int64(s.Throughput()) }
	if weighted {
		oracle, measure = exact.MaxWeightThroughput, core.Schedule.WeightedThroughput
	}
	cols := make([][]float64, len(solvers))
	for i := range cols {
		cols[i] = make([]float64, len(fracs)*seeds)
	}
	parallel.ForEach(seeds, 0, func(seed int) {
		in := gen(int64(seed))
		full, err := exact.MinBusyCost(in)
		if err != nil {
			panic(err)
		}
		for k, frac := range fracs {
			budget := int64(frac * float64(full))
			opt, err := oracle(context.Background(), in, budget)
			if err != nil {
				panic(err)
			}
			for i, solve := range solvers {
				s, err := solve(in, budget)
				if err != nil {
					panic(err)
				}
				cols[i][k*seeds+seed] = 1
				if o := measure(opt); o > 0 {
					cols[i][k*seeds+seed] = float64(measure(s)) / float64(o)
				}
			}
		}
	})
	return cols
}

// E1 measures Lemma 3.1: CliqueMatching is optimal on clique instances
// with g = 2 (every measured ratio must be exactly 1).
func E1(seeds int) Result {
	t := &stats.Table{Header: []string{"n", "instances", "mean ratio", "max ratio"}}
	cliqueMatching := minBusy("clique-matching")
	for _, n := range []int{6, 10, 14} {
		ratios := vsOpt(seeds, func(seed int64) job.Instance {
			return workload.Clique(seed, workload.Config{N: n, G: 2, MaxTime: 200, MaxLen: 60})
		}, cliqueMatching)
		mean, max := ratioStats(ratios[0])
		t.Add(n, seeds, mean, max)
	}
	return Result{
		ID:    "E1",
		Title: "clique g=2 via maximum-weight matching",
		Claim: "Lemma 3.1: polynomial and optimal (ratio = 1)",
		Table: t,
	}
}

// E2 measures Lemma 3.2: CliqueSetCover within g·H_g/(H_g+g−1) on cliques.
func E2(seeds int) Result {
	t := &stats.Table{Header: []string{"g", "bound", "mean ratio", "max ratio"}}
	cliqueSetCover := minBusy("clique-set-cover")
	for _, g := range []int{2, 3, 4} {
		bound := SetCoverBound(g)
		ratios := vsOpt(seeds, func(seed int64) job.Instance {
			return workload.Clique(seed, workload.Config{N: 10, G: g, MaxTime: 200, MaxLen: 60})
		}, cliqueSetCover)
		mean, max := ratioStats(ratios[0])
		t.Add(g, bound, mean, max)
	}
	return Result{
		ID:    "E2",
		Title: "clique set-cover approximation",
		Claim: "Lemma 3.2: ratio ≤ g·H_g/(H_g+g−1) (< 2 for g ≤ 6)",
		Table: t,
	}
}

// E3 measures Theorem 3.1: BestCut within 2−1/g on proper instances, and
// compares against the FirstFit baseline of [13] it improves upon.
func E3(seeds int) Result {
	t := &stats.Table{Header: []string{"g", "bound", "bestcut mean", "bestcut max", "firstfit mean"}}
	bestCut := minBusy("best-cut")
	firstFit := minBusy("first-fit")
	for _, g := range []int{2, 3, 4, 6} {
		bound := 2 - 1/float64(g)
		ratios := vsOpt(seeds, func(seed int64) job.Instance {
			return workload.Proper(seed, workload.Config{N: 11, G: g, MaxTime: 200, MaxLen: 40})
		}, bestCut, firstFit)
		bcMean, bcMax := ratioStats(ratios[0])
		ffMean, _ := ratioStats(ratios[1])
		t.Add(g, bound, bcMean, bcMax, ffMean)
	}
	return Result{
		ID:    "E3",
		Title: "BestCut on proper instances vs FirstFit [13]",
		Claim: "Theorem 3.1: BestCut ≤ (2−1/g)·OPT, improving on the 2-approximation of [13]",
		Table: t,
	}
}

// E4 measures Theorem 3.2: FindBestConsecutive is optimal on proper clique
// instances.
func E4(seeds int) Result {
	t := &stats.Table{Header: []string{"n", "g", "instances", "max ratio"}}
	findBestConsecutive := minBusy("find-best-consecutive")
	for _, cfg := range [][2]int{{8, 2}, {12, 3}, {16, 4}} {
		ratios := vsOpt(seeds, func(seed int64) job.Instance {
			return workload.ProperClique(seed, workload.Config{N: cfg[0], G: cfg[1], MaxTime: 300, MaxLen: 50})
		}, findBestConsecutive)
		_, max := ratioStats(ratios[0])
		t.Add(cfg[0], cfg[1], seeds, max)
	}
	return Result{
		ID:    "E4",
		Title: "proper clique DP (FindBestConsecutive)",
		Claim: "Theorem 3.2: optimal in O(n·g) time (ratio = 1)",
		Table: t,
	}
}

// E5 reproduces Figure 3 / Lemma 3.5: FirstFit2D on the adversarial family
// matches the predicted cost exactly and its ratio against the optimum
// upper bound follows the closed form g(1+2γ−ε′)(3−ε′)/(g+6γ−1) → 6γ+3.
func E5() Result {
	t := &stats.Table{Header: []string{"g", "gamma1", "ff cost", "opt UB", "ratio", "closed form", "6γ+3"}}
	scale, eps := int64(1000), int64(1)
	for _, gamma := range []int64{1, 2, 4} {
		for _, g := range []int{6, 12, 24, 48} {
			in, err := workload.Figure3(g, gamma, scale, eps)
			if err != nil {
				panic(err)
			}
			s := core.FirstFit2D(in)
			ff := s.Cost()
			if predicted := workload.Figure3FirstFitCost(g, gamma, scale, eps); ff != predicted {
				panic(fmt.Sprintf("E5: FirstFit2D cost %d != prediction %d", ff, predicted))
			}
			ub := workload.Figure3OptUpperBound(g, gamma, scale, eps)
			e := float64(eps) / float64(scale)
			form := float64(g) * (1 + 2*float64(gamma) - e) * (3 - e) / float64(g+6*int(gamma)-1)
			t.Add(g, gamma, ff, ub, stats.Ratio(ff, ub), form, 6*gamma+3)
		}
	}
	return Result{
		ID:    "E5",
		Title: "Figure 3 adversarial family for FirstFit2D",
		Claim: "Lemma 3.5: FirstFit ratio between 6γ₁+3 and 6γ₁+4; simulated cost equals the proof's prediction",
		Table: t,
		Notes: []string{"ratio column equals the closed form exactly; it approaches 6γ+3 as g grows"},
	}
}

// E6 measures Theorem 3.3: BucketFirstFit within
// min(g, 13.82·log γ + O(1)) on bounded-γ rectangle workloads; FirstFit2D
// shown for comparison.
func E6(seeds int) Result {
	t := &stats.Table{Header: []string{"gamma_max", "g", "bucket mean", "ff2d mean", "vs LB"}}
	for _, gamma := range []int64{2, 8, 32} {
		for _, g := range []int{2, 4} {
			var bucket, ff []float64
			for seed := 0; seed < seeds; seed++ {
				in := workload.BoundedGammaRects(int64(seed), workload.Config{N: 40, G: g, MaxTime: 150, MaxLen: 40}, gamma)
				lb := in.LowerBound()
				b, err := core.BucketFirstFitAuto(in)
				if err != nil {
					panic(err)
				}
				bucket = append(bucket, stats.Ratio(b.Cost(), lb))
				ff = append(ff, stats.Ratio(core.FirstFit2D(in).Cost(), lb))
			}
			bMean, _ := ratioStats(bucket)
			fMean, _ := ratioStats(ff)
			t.Add(gamma, g, bMean, fMean, "ratio vs lower bound (≥ OPT ratio)")
		}
	}
	return Result{
		ID:    "E6",
		Title: "BucketFirstFit on bounded-γ rectangles",
		Claim: "Theorem 3.3: min(g, 13.82·log min(γ₁,γ₂)+O(1))-approximation",
		Table: t,
		Notes: []string{"ratios are against the Observation 2.1 lower bound, an over-estimate of the true ratio"},
	}
}

// E7 measures Theorem 4.1: CliqueThroughput ≥ tput*/4 across a budget
// sweep on clique instances.
func E7(seeds int) Result {
	t := &stats.Table{Header: []string{"g", "budget", "mean tput/opt", "min tput/opt", "bound"}}
	fracs := []float64{0.25, 0.5, 0.75, 1.0}
	for _, g := range []int{2, 3} {
		ratios := vsMaxThroughput(seeds, func(seed int64) job.Instance {
			return workload.Clique(seed, workload.Config{N: 10, G: g, MaxTime: 200, MaxLen: 60})
		}, fracs, false, throughputSolve("clique-throughput"))[0]
		for k, frac := range fracs {
			sum := stats.Summarize(ratios[k*seeds : (k+1)*seeds])
			t.Add(g, fmt.Sprintf("%.0f%% of OPT cost", frac*100), sum.Mean, sum.Min, 0.25)
		}
	}
	return Result{
		ID:    "E7",
		Title: "clique MaxThroughput 4-approximation",
		Claim: "Theorem 4.1: scheduled jobs ≥ tput*/4 for every budget",
		Table: t,
	}
}

// E8 measures Theorem 4.2: MostThroughputConsecutive is optimal on proper
// cliques across budgets; the weighted extension is also checked.
func E8(seeds int) Result {
	t := &stats.Table{Header: []string{"variant", "instances x budgets", "min tput/opt"}}
	gen := func(seed int64) job.Instance {
		in := workload.ProperClique(seed, workload.Config{N: 10, G: 3, MaxTime: 200, MaxLen: 40})
		for i := range in.Jobs {
			in.Jobs[i].Weight = 1 + (int64(i)*13+seed)%7
		}
		return in
	}
	fracs := []float64{0.3, 0.6, 0.9}
	unweighted := vsMaxThroughput(seeds, gen, fracs, false, throughputSolve("most-throughput-consecutive"))[0]
	weighted := vsMaxThroughput(seeds, gen, fracs, true, throughputSolve("most-weight-consecutive"))[0]
	t.Add("unweighted (Thm 4.2)", len(unweighted), stats.Summarize(unweighted).Min)
	t.Add("weighted (Sec 5 ext)", len(weighted), stats.Summarize(weighted).Min)
	return Result{
		ID:    "E8",
		Title: "proper clique throughput DPs vs oracle",
		Claim: "Theorem 4.2: optimal (ratio = 1); weighted extension also exact",
		Table: t,
	}
}

// E9 measures Observation 2.1 / Proposition 2.1: every algorithm's
// schedule falls within [max(span, len/g), len] and within g·OPT.
func E9(seeds int) Result {
	t := &stats.Table{Header: []string{"algorithm", "mean cost/LB", "max cost/(g·OPT)"}}
	type alg struct {
		name string
		run  func(job.Instance) core.Schedule
	}
	algs := []alg{
		{"naive-per-job", minBusy("naive-per-job")},
		{"first-fit", minBusy("first-fit")},
		{"auto", autoMinBusy},
	}
	for _, a := range algs {
		var vsLB, vsGOpt []float64
		for seed := 0; seed < seeds; seed++ {
			in := workload.General(int64(seed), workload.Config{N: 10, G: 3, MaxTime: 100, MaxLen: 30})
			s := a.run(in)
			opt, err := exact.MinBusyCost(in)
			if err != nil {
				panic(err)
			}
			vsLB = append(vsLB, stats.Ratio(s.Cost(), in.LowerBound()))
			vsGOpt = append(vsGOpt, stats.Ratio(s.Cost(), int64(in.G)*opt))
		}
		lbMean, _ := ratioStats(vsLB)
		_, gMax := ratioStats(vsGOpt)
		t.Add(a.name, lbMean, gMax)
	}
	return Result{
		ID:    "E9",
		Title: "Observation 2.1 bounds across algorithms",
		Claim: "Proposition 2.1: any schedule ≤ g·OPT; all costs within [LB, len(J)]",
		Table: t,
		Notes: []string{"max cost/(g·OPT) must be ≤ 1"},
	}
}

// E10 measures Proposition 2.2: binary search over MaxThroughput recovers
// the MinBusy optimum, counting oracle calls (logarithmic in len(J)).
func E10(seeds int) Result {
	t := &stats.Table{Header: []string{"n", "exact match", "mean oracle calls"}}
	mostThroughput := throughputSolve("most-throughput-consecutive")
	for _, n := range []int{8, 12} {
		matches := 0
		var calls []float64
		for seed := 0; seed < seeds; seed++ {
			in := workload.ProperClique(int64(seed), workload.Config{N: n, G: 3, MaxTime: 200, MaxLen: 40})
			nCalls := 0
			solve := func(in job.Instance, budget int64) (core.Schedule, error) {
				nCalls++
				return mostThroughput(in, budget)
			}
			s, err := core.MinBusyViaThroughput(in, solve)
			if err != nil {
				panic(err)
			}
			opt, err := exact.MinBusyCost(in)
			if err != nil {
				panic(err)
			}
			if s.Cost() == opt {
				matches++
			}
			calls = append(calls, float64(nCalls))
		}
		t.Add(n, fmt.Sprintf("%d/%d", matches, seeds), stats.Summarize(calls).Mean)
	}
	return Result{
		ID:    "E10",
		Title: "MinBusy via MaxThroughput binary search",
		Claim: "Proposition 2.2: polynomial reduction; recovered cost equals OPT",
		Table: t,
	}
}

// E11 measures Observation 3.1 and Proposition 4.1 on one-sided cliques.
func E11(seeds int) Result {
	t := &stats.Table{Header: []string{"problem", "instances", "max ratio / min tput ratio"}}
	// Instance 2s shares its jobs' start, instance 2s+1 their end.
	gen := func(i int64) job.Instance {
		return workload.OneSided(i/2, workload.Config{N: 10, G: 3, MaxTime: 200, MaxLen: 50}, i%2 == 0)
	}
	minBusyRatios := vsOpt(2*seeds, gen, minBusy("one-sided-greedy"))[0]
	tputRatios := vsMaxThroughput(2*seeds, gen, []float64{0.5}, false, throughputSolve("one-sided-throughput"))[0]
	t.Add("MinBusy (Obs 3.1)", 2*seeds, stats.Summarize(minBusyRatios).Max)
	t.Add("MaxThroughput (Prop 4.1)", 2*seeds, stats.Summarize(tputRatios).Min)
	return Result{
		ID:    "E11",
		Title: "one-sided clique exact algorithms",
		Claim: "Observation 3.1 / Proposition 4.1: both optimal (ratios = 1)",
		Table: t,
	}
}

// E13 exercises the Section 5 extensions: tree grooming, ring FirstFit,
// and demand-aware FirstFit.
func E13(seeds int) Result {
	t := &stats.Table{Header: []string{"extension", "metric", "value"}}

	// Tree: laminar families where greedy is provably optimal.
	treeOK := true
	for seed := int64(0); seed < int64(seeds); seed++ {
		asg, want := treeLaminarTrial(seed)
		if asg.Cost != want {
			treeOK = false
		}
	}
	t.Add("tree grooming (§5/Obs 3.1)", "laminar greedy = one-sided OPT", treeOK)

	// Ring: FirstFit validity and bound adherence.
	worstRing := 0.0
	for seed := int64(0); seed < int64(seeds); seed++ {
		in := ringTrial(seed)
		s := ring.FirstFit(in)
		if err := s.Validate(); err != nil {
			panic(err)
		}
		if r := stats.Ratio(s.Cost(), in.LowerBound()); r > worstRing {
			worstRing = r
		}
	}
	t.Add("ring FirstFit (§5/Thm 3.3)", "max cost/LB", worstRing)

	// Demands: FirstFit vs demand-ordered FirstFit.
	var plain, byDemand []float64
	for seed := int64(0); seed < int64(seeds); seed++ {
		base := workload.General(seed, workload.Config{N: 30, G: 4, MaxTime: 150, MaxLen: 40})
		in := workload.WithDemands(seed+1000, base, 3)
		lb := demand.LowerBound(in)
		plain = append(plain, stats.Ratio(demand.FirstFit(in).Cost(), lb))
		byDemand = append(byDemand, stats.Ratio(demand.FirstFitByDemand(in).Cost(), lb))
	}
	pMean, _ := ratioStats(plain)
	dMean, _ := ratioStats(byDemand)
	t.Add("demands [16] first-fit", "mean cost/LB", pMean)
	t.Add("demands [16] by-demand", "mean cost/LB", dMean)

	return Result{
		ID:    "E13",
		Title: "Section 5 extensions",
		Claim: "tree greedy optimal on laminar families; ring/demand heuristics valid and bounded",
		Table: t,
	}
}

// E14 is the ablation study of three of the paper's design choices:
// (a) BestCut's g cut offsets vs a single fixed cut, (b) the combined
// CliqueSetCover vs its modified-weight and plain-span variants alone,
// (c) the combined clique throughput algorithm vs Alg1 and Alg2 alone.
func E14(seeds int) Result {
	t := &stats.Table{Header: []string{"ablation", "variant", "mean ratio", "max ratio"}}

	// (a) BestCut offsets.
	singleCut := func(_ context.Context, in job.Instance) (core.Schedule, error) { return core.SingleCut(in) }
	cuts := vsOpt(seeds, func(seed int64) job.Instance {
		return workload.Proper(seed, workload.Config{N: 11, G: 3, MaxTime: 200, MaxLen: 40})
	}, minBusy("best-cut"), must(singleCut))
	for i, variant := range []string{"best of g offsets", "single fixed cut"} {
		mean, max := ratioStats(cuts[i])
		t.Add("cut offsets (Thm 3.1)", variant, mean, max)
	}

	// (b) Set-cover variants.
	covers := vsOpt(seeds, func(seed int64) job.Instance {
		return workload.Clique(seed, workload.Config{N: 10, G: 3, MaxTime: 200, MaxLen: 60})
	}, must(core.CliqueSetCover), must(core.CliqueSetCoverModified), must(core.CliqueSetCoverPlain))
	for i, variant := range []string{"combined (shipped)", "modified weights only", "plain span only"} {
		mean, max := ratioStats(covers[i])
		t.Add("set cover (Lemma 3.2)", variant, mean, max)
	}

	// (c) Throughput Alg1 / Alg2 / combined, budget = half of optimal.
	tputs := vsMaxThroughput(seeds, func(seed int64) job.Instance {
		return workload.Clique(seed, workload.Config{N: 10, G: 3, MaxTime: 200, MaxLen: 60})
	}, []float64{0.5}, false, core.CliqueAlg1, core.CliqueAlg2, core.CliqueThroughput)
	for i, variant := range []string{"Alg1 only", "Alg2 only", "combined (shipped)"} {
		sum := stats.Summarize(tputs[i])
		t.Add("throughput (Thm 4.1)", variant, sum.Mean, sum.Min)
	}

	return Result{
		ID:    "E14",
		Title: "ablations of shipped design choices",
		Claim: "combined/best-of variants dominate each component alone",
		Table: t,
		Notes: []string{"throughput rows report (mean, min) of tput/opt rather than cost ratios"},
	}
}

// E15 measures the local-search post-optimizer (a beyond-paper
// engineering addition): starting from FirstFit and from the auto
// dispatcher, how much of the remaining gap to the oracle does hill
// climbing close on small instances?
func E15(seeds int) Result {
	t := &stats.Table{Header: []string{"start", "mean ratio before", "mean ratio after", "mean gap closed"}}
	type starter struct {
		name string
		run  func(job.Instance) core.Schedule
	}
	starters := []starter{
		{"first-fit", minBusy("first-fit")},
		{"auto", autoMinBusy},
		{"naive", minBusy("naive-per-job")},
	}
	for _, st := range starters {
		triples := parallel.Map(seeds, 0, func(seed int) [3]float64 {
			in := workload.General(int64(seed), workload.Config{N: 12, G: 3, MaxTime: 80, MaxLen: 30})
			opt, err := exact.MinBusyCost(in)
			if err != nil {
				panic(err)
			}
			before := st.run(in)
			after := localsearch.Improve(before, 0)
			if err := after.Validate(); err != nil {
				panic(err)
			}
			rb := stats.Ratio(before.Cost(), opt)
			ra := stats.Ratio(after.Cost(), opt)
			closed := 0.0
			if before.Cost() > opt {
				closed = float64(before.Cost()-after.Cost()) / float64(before.Cost()-opt)
			} else {
				closed = 1
			}
			return [3]float64{rb, ra, closed}
		})
		var rb, ra, cl []float64
		for _, tr := range triples {
			rb = append(rb, tr[0])
			ra = append(ra, tr[1])
			cl = append(cl, tr[2])
		}
		t.Add(st.name, stats.Summarize(rb).Mean, stats.Summarize(ra).Mean, stats.Summarize(cl).Mean)
	}
	return Result{
		ID:    "E15",
		Title: "local-search post-optimization (beyond paper)",
		Claim: "hill climbing never worsens and closes part of the optimality gap",
		Table: t,
	}
}

// E16 is the registry-driven conformance experiment (beyond paper): for
// every registered algorithm — walked from registry.List(), so a new
// registration appears here automatically — the internal/conformance
// harness generates seeded instances of the algorithm's declared
// classes, solves them through Solver.Solve, and checks certificates,
// the Observation 2.1 lower bound, the registered guarantee against the
// exact oracle, and the metamorphic invariants (permutation, time
// translation, duplication under doubled capacity). Any violation is
// shrunk to a minimal counterexample and reported in the notes as a
// reproducible Go literal; the experiment panics on violations so a
// regression can never be published silently.
func E16(seeds int) Result {
	cfg := conformance.DefaultConfig()
	if seeds > 0 {
		cfg.Seeds = seeds
	}
	outs, err := conformance.CheckAll(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	var notes []string
	for _, o := range outs {
		for _, v := range o.Violations {
			notes = append(notes, v.String())
		}
	}
	if len(notes) > 0 {
		panic(fmt.Sprintf("E16: %d conformance violations:\n%s", len(notes), strings.Join(notes, "\n")))
	}
	return Result{
		ID:    "E16",
		Title: "registry-driven conformance harness (beyond paper)",
		Claim: "every registered algorithm passes certificate, bound, guarantee and metamorphic checks on its declared classes",
		Table: conformance.Table(outs),
		Notes: []string{"instances per (algorithm, class, g): " + fmt.Sprint(cfg.Seeds)},
	}
}

// E17 measures the streaming online subsystem (beyond paper): every
// served strategy — FirstFit, Buckets, BestFit and the weighted budgeted
// admission control — runs twice on the same seeded weighted arrival
// streams, once through the offline replay harness (a session fed the
// instance's ByStart order) and once fed arrival by arrival, from the
// instance's SortedByStart copy, through an incremental online.Session
// (the state behind busyd's POST /v1/stream). The streamed run's final
// cost, Observation 2.1 lower bound and empirical competitive ratio must
// agree exactly with the offline replay's; the experiment panics on any
// divergence, so the streaming path can never silently drift from the
// reference harness. The table reports the (identical) mean ratios plus
// the admission behaviour of the budgeted strategy.
func E17(seeds int) Result {
	cfg := workload.Config{N: 300, G: 4, MaxTime: 1500, MaxLen: 60}
	builders := []struct {
		name string
		mk   func(budget int64) online.Strategy
	}{
		{"online-firstfit", func(int64) online.Strategy { return online.FirstFit() }},
		{"online-buckets", func(int64) online.Strategy { return online.Buckets() }},
		{"online-bestfit", func(int64) online.Strategy { return online.BestFit() }},
		{"online-budget", func(budget int64) online.Strategy { return online.Budgeted(budget) }},
	}
	t := &stats.Table{Header: []string{"strategy", "streamed ratio", "offline ratio", "rejected %", "mismatches"}}
	for _, b := range builders {
		var streamed, offline, rejected []float64
		mismatches := 0
		for seed := 1; seed <= seeds; seed++ {
			in := workload.WeightedArrivals(int64(seed), cfg)
			budget := in.LowerBound() * 3 / 2 // tight enough to force rejections
			res, err := online.Replay(in, b.mk(budget))
			if err != nil {
				panic(err)
			}
			want := res.Summary

			sess, err := online.NewSession(in.G, b.mk(budget))
			if err != nil {
				panic(err)
			}
			for _, j := range in.SortedByStart().Jobs {
				if _, err := sess.Offer(j); err != nil {
					panic(err)
				}
			}
			got := sess.Summary()
			if got != want {
				mismatches++
			}
			streamed = append(streamed, got.Ratio)
			offline = append(offline, want.Ratio)
			rejected = append(rejected, 100*float64(got.Rejected)/float64(got.Arrivals))
		}
		sMean, _ := ratioStats(streamed)
		oMean, _ := ratioStats(offline)
		rMean, _ := ratioStats(rejected)
		t.Add(b.name, fmt.Sprintf("%.4f", sMean), fmt.Sprintf("%.4f", oMean), fmt.Sprintf("%.1f", rMean), mismatches)
		if mismatches > 0 {
			panic(fmt.Sprintf("E17: %s: %d of %d streamed sessions diverge from the offline replay", b.name, mismatches, seeds))
		}
	}
	return Result{
		ID:    "E17",
		Title: "streamed vs offline-replayed competitive ratios (beyond paper)",
		Claim: "feeding arrivals through an incremental session reproduces the offline replay harness exactly, for every strategy including budgeted admission control",
		Table: t,
		Notes: []string{fmt.Sprintf("weighted arrival streams, n=%d g=%d, budget = 1.5·LB for online-budget", cfg.N, cfg.G)},
	}
}

// E18 measures the reoptimization layer (beyond paper): warm-started
// delta solves against solve-from-scratch at n=1000 across delta sizes.
// For each trial a base instance is solved once into the fingerprint
// cache, then a delta instance (d jobs dropped, d added, canonical
// origin preserved) is solved twice — cold on a cache-free solver,
// warm on the cached one — and both wall clocks, costs and transition
// counts are compared. Every warm solve must be served via repair with
// a valid certificate, and single-job deltas must beat scratch on
// median wall clock: the whole point of carrying the incumbent.
func E18(seeds int) Result {
	cfg := workload.Config{N: 1000, G: 4, MaxTime: 8000, MaxLen: 120}
	ctx := context.Background()
	deltas := []int{1, 4, 16}
	t := &stats.Table{Header: []string{"delta", "median speedup", "mean cost ratio", "mean transition", "repairs"}}
	for _, d := range deltas {
		var speedups, costRatios, transitions []float64
		repairs := 0
		for seed := 1; seed <= seeds; seed++ {
			base := workload.General(int64(seed), cfg)
			warm := busytime.NewSolver(busytime.WithReoptimization(8))
			if _, err := warm.Solve(ctx, busytime.Request{Instance: base}); err != nil {
				panic(fmt.Sprintf("E18: base solve: %v", err))
			}

			// The delta: drop the d latest-starting jobs (the canonical
			// origin — the min start — survives) and add d interior jobs.
			mod := base.SortedByStart()
			minStart := mod.Jobs[0].Start()
			mod.Jobs = mod.Jobs[:len(mod.Jobs)-d]
			for k := 0; k < d; k++ {
				start := minStart + int64(37*(k+1)+seed*13)%cfg.MaxTime
				mod.Jobs = append(mod.Jobs, job.New(2_000_000+k, start, start+int64(20+k)))
			}

			scratchStart := time.Now()
			scratch, err := busytime.NewSolver().Solve(ctx, busytime.Request{Instance: mod})
			if err != nil {
				panic(fmt.Sprintf("E18: scratch solve: %v", err))
			}
			scratchTime := time.Since(scratchStart)

			warmStart := time.Now()
			rep, err := warm.Solve(ctx, busytime.Request{Instance: mod})
			if err != nil {
				panic(fmt.Sprintf("E18: warm solve: %v", err))
			}
			warmTime := time.Since(warmStart)

			if rep.CacheOutcome != busytime.CacheRepair {
				panic(fmt.Sprintf("E18: delta %d seed %d served as %q, want repair", d, seed, rep.CacheOutcome))
			}
			if err := rep.Certificate(); err != nil {
				panic(fmt.Sprintf("E18: repair certificate: %v", err))
			}
			if err := scratch.Certificate(); err != nil {
				panic(fmt.Sprintf("E18: scratch certificate: %v", err))
			}
			repairs++
			speedups = append(speedups, float64(scratchTime)/float64(warmTime))
			costRatios = append(costRatios, float64(rep.Cost)/float64(scratch.Cost))
			transitions = append(transitions, float64(rep.Transition))
		}
		med := median(speedups)
		cMean, _ := ratioStats(costRatios)
		tMean, _ := ratioStats(transitions)
		t.Add(fmt.Sprintf("%d", d), fmt.Sprintf("%.1fx", med), fmt.Sprintf("%.4f", cMean), fmt.Sprintf("%.1f", tMean), repairs)
		if d == 1 && med <= 1 {
			panic(fmt.Sprintf("E18: single-job deltas repaired at %.2fx — not faster than scratch", med))
		}
	}
	return Result{
		ID:    "E18",
		Title: "reoptimization: warm-started delta solves vs solve-from-scratch (beyond paper)",
		Claim: "repairing the cached incumbent around a small delta is faster than re-solving, at near-scratch cost, with transition cost proportional to the delta",
		Table: t,
		Notes: []string{fmt.Sprintf("n=%d g=%d, d jobs dropped + d added per trial; speedup is scratch/warm wall clock", cfg.N, cfg.G)},
	}
}

// median returns the middle of the sorted copy (mean of the two middles
// for even sizes).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func treeLaminarTrial(seed int64) (tree.Assignment, int64) {
	// Line of 30 unit edges, requests all anchored at node 0.
	edges := make([]tree.Edge, 30)
	for i := range edges {
		edges[i] = tree.Edge{U: i, V: i + 1, Length: 1}
	}
	tr, err := tree.New(31, edges)
	if err != nil {
		panic(err)
	}
	g := 3
	n := 12
	reqs := make([]tree.Request, n)
	lens := make([]int64, n)
	for i := range reqs {
		end := 1 + int((seed*31+int64(i)*17)%30)
		reqs[i] = tree.Request{ID: i, Path: tr.PathBetween(0, end)}
		lens[i] = int64(end)
	}
	asg := tree.GreedyGroom(reqs, g)
	// One-sided optimum.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if lens[j] > lens[i] {
				lens[i], lens[j] = lens[j], lens[i]
			}
		}
	}
	var want int64
	for i := 0; i < n; i += g {
		want += lens[i]
	}
	return asg, want
}

func ringTrial(seed int64) ring.Instance {
	in := ring.Instance{C: 300, G: 3}
	for i := 0; i < 25; i++ {
		v := seed*1009 + int64(i)*733
		ts := v % 40
		if ts < 0 {
			ts = -ts
		}
		in.Jobs = append(in.Jobs, ring.Job{
			ID:     i,
			Arc:    ring.Arc{Start: abs64(v*7) % 300, Length: 1 + abs64(v*13)%120},
			TStart: ts,
			TEnd:   ts + 1 + abs64(v*3)%25,
		})
	}
	return in
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// All runs every experiment with default sizes, in index order.
func All() []Result {
	return []Result{
		E1(Seeds), E2(Seeds), E3(Seeds), E4(Seeds), E5(), E6(10),
		E7(Seeds), E8(30), E9(Seeds), E10(30), E11(Seeds), E13(20), E14(30), E15(30), E16(3),
		E17(10), E18(5),
	}
}

// SetCoverBound returns the Lemma 3.2 ratio g·H_g/(H_g+g−1).
func SetCoverBound(g int) float64 {
	hg := setcover.Harmonic(g)
	return float64(g) * hg / (hg + float64(g) - 1)
}

// BoundTable tabulates the paper's claimed approximation bounds as a
// function of g, verifying the in-text claims that the Lemma 3.2 bound is
// monotonically increasing and stays below 2 up to g = 6, and that it
// beats both the BestCut bound and the flat 2-approximation of [13] at
// small g.
func BoundTable(maxG int) Result {
	t := &stats.Table{Header: []string{"g", "Lemma 3.2 bound", "Thm 3.1 bound (2-1/g)", "[13] bound"}}
	prev := 0.0
	for g := 1; g <= maxG; g++ {
		b := SetCoverBound(g)
		if b < prev {
			panic("BoundTable: Lemma 3.2 bound not monotone")
		}
		if (b < 2) != (g <= 6) {
			panic("BoundTable: < 2 iff g <= 6 claim violated")
		}
		prev = b
		t.Add(g, b, 2-1/float64(g), 2.0)
	}
	return Result{
		ID:    "B1",
		Title: "closed-form bound landscape",
		Claim: "Lemma 3.2 bound is monotone in g and < 2 exactly for g ≤ 6",
		Table: t,
	}
}
