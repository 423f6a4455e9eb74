package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	busytime "repro"
	"repro/internal/job"
	"repro/internal/rect"
	"repro/internal/workload"
)

// runRect is the `busysim rect` subcommand: the two-dimensional
// (Section 3.4) busy-time algorithms on random bounded-γ rectangle
// workloads or the Figure 3 adversarial family, solved through the
// Solver with any registered 2-D algorithm.
func runRect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("busysim rect", flag.ContinueOnError)
	var (
		family = fs.String("workload", "rects", "workload: rects|fig3")
		n      = fs.Int("n", 50, "number of jobs (rects workload)")
		g      = fs.Int("g", 3, "machine capacity")
		gamma  = fs.Int64("gamma", 4, "max γ₁ (rects) / target γ₁ (fig3)")
		seed   = fs.Int64("seed", 1, "random seed (rects workload)")
		alg    = fs.String("alg", "all", "algorithm: all|"+strings.Join(busytime.AlgorithmNames(busytime.KindMinBusy2D), "|"))
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	in, err := validated(buildRectInstance(*family, *n, *g, *gamma, *seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "instance: n=%d g=%d gamma1=%.2f area=%d span=%d LB=%d\n",
		len(in.Jobs), in.G, rect.Gamma(in.Rects(), 1), in.TotalArea(), in.SpanArea(), in.LowerBound())

	names, err := pickAlgorithms(*alg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, name := range names {
		res, err := busytime.NewSolver(busytime.WithAlgorithm(name)).
			Solve(ctx, busytime.Request{Rect: &in})
		if err != nil {
			return err
		}
		if err := res.Certificate(); err != nil {
			return fmt.Errorf("%s produced an uncertifiable schedule: %v", res.Algorithm, err)
		}
		fmt.Fprintf(out, "%-16s cost=%d machines=%d cost/LB=%.3f\n",
			res.Algorithm, res.Cost, res.Machines, res.RatioVsBound)
	}
	if *family == "fig3" {
		predicted := workload.Figure3FirstFitCost(*g, *gamma, 1000, 1)
		fmt.Fprintf(out, "fig3: Lemma 3.5 predicts FirstFit2D cost %d (opt UB %d)\n",
			predicted, workload.Figure3OptUpperBound(*g, *gamma, 1000, 1))
	}
	return nil
}

// pickAlgorithms resolves -alg through the registry: "all" runs every
// registered polynomial 2-D algorithm strongest-first (the size-capped
// exact-2d oracle is reachable by name only); unknown names report the
// registered list.
func pickAlgorithms(alg string) ([]string, error) {
	if alg == "all" {
		var names []string
		for _, a := range busytime.Algorithms() {
			if a.Kind == busytime.KindMinBusy2D && !a.Oracle {
				names = append(names, a.Name)
			}
		}
		return names, nil
	}
	info, err := busytime.LookupAlgorithmKind(busytime.KindMinBusy2D, alg)
	if err != nil {
		return nil, err
	}
	return []string{info.Name}, nil
}

// buildRectInstance generates the -workload family. The flags come from
// the command line, so they are checked here: the generators panic on
// out-of-range values.
func buildRectInstance(family string, n, g int, gamma, seed int64) (job.RectInstance, error) {
	if n < 0 || g < 1 || gamma < 1 {
		return job.RectInstance{}, fmt.Errorf("need -n >= 0, -g >= 1 and -gamma >= 1, got -n %d -g %d -gamma %d", n, g, gamma)
	}
	switch family {
	case "rects":
		return workload.BoundedGammaRects(seed, workload.Config{N: n, G: g, MaxTime: 300, MaxLen: 80}, gamma), nil
	case "fig3":
		return workload.Figure3(g, gamma, 1000, 1)
	default:
		return job.RectInstance{}, fmt.Errorf("unknown workload %q", family)
	}
}
