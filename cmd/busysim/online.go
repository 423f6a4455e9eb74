package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	busytime "repro"
	"repro/internal/exact"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/online"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runOnline is the `busysim online` subcommand: it replays an instance
// through the online strategies in arrival order and reports each
// strategy's cost, machine usage, and empirical competitive ratio
// against the offline algorithms (and the exact oracle on small
// instances). With -json the reports are printed as JSON; otherwise a
// fixed-width table is printed.
func runOnline(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("busysim online", flag.ContinueOnError)
	inst := addInstanceFlags(fs, "arrivals", workload.Config{N: 20, G: 2, MaxTime: 200, MaxLen: 50}, true)
	fs.Lookup("workload").Usage += "|adversarial"
	var (
		longLen      = fs.Int64("longlen", 0, "long-job length for the adversarial family (default 100g)")
		strategyName = fs.String("strategy", "all", "strategy: all|"+strings.Join(busytime.AlgorithmNames(busytime.KindOnline), "|"))
		budget       = fs.Int64("budget", 0, "busy-time budget for admission-control strategies (required by online-budget; without it \"all\" skips them)")
		outJSON      = fs.Bool("json", false, "emit JSON output")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	in, err := loadOnline(inst, *longLen)
	if err != nil {
		return err
	}
	strategies, err := pickStrategies(*strategyName, *budget)
	if err != nil {
		return err
	}
	reports, err := busytime.CompareOnline(in, strategies...)
	if err != nil {
		return err
	}

	if *outJSON {
		return encodeJSON(out, struct {
			N       int             `json:"n"`
			G       int             `json:"g"`
			Class   string          `json:"class"`
			Reports []online.Report `json:"reports"`
		}{len(in.Jobs), in.G, igraph.Classify(in.Jobs).String(), reports})
	}
	fmt.Fprintf(out, "instance: n=%d g=%d class=%s len=%d span=%d LB=%d\n",
		len(in.Jobs), in.G, igraph.Classify(in.Jobs), in.TotalLen(), in.Span(), in.LowerBound())
	if len(reports) == 0 {
		return nil
	}
	r0 := reports[0]
	fmt.Fprintf(out, "offline: %s cost=%d", r0.OfflineAlg, r0.OfflineCost)
	if r0.HasExact {
		fmt.Fprintf(out, "  exact cost=%d\n", r0.ExactCost)
	} else {
		fmt.Fprintf(out, "  exact skipped (n > %d)\n", exact.MaxN)
	}

	t := stats.Table{Header: []string{"strategy", "cost", "machines", "peak", "rejected", "vs-offline", "vs-exact", "vs-LB"}}
	for _, r := range reports {
		vsExact := "-"
		if r.HasExact {
			vsExact = fmt.Sprintf("%.3f", r.VsExact())
		}
		t.Add(r.Strategy, r.Cost, r.Machines, r.PeakOpen, r.Rejected,
			fmt.Sprintf("%.3f", r.VsOffline()), vsExact, fmt.Sprintf("%.3f", r.VsLowerBound()))
	}
	fmt.Fprint(out, t.String())
	return nil
}

// loadOnline is the shared loader plus the adversarial family, the
// Ω(g) FirstFit stream, which takes -longlen instead of a seed.
func loadOnline(inst *instanceFlags, longLen int64) (job.Instance, error) {
	if inst.path != "" || inst.family != "adversarial" {
		return inst.load()
	}
	if longLen <= 0 {
		longLen = 100 * int64(inst.cfg.G)
	}
	return validated(workload.AdversarialFirstFit(inst.cfg.G, longLen))
}

// pickStrategies resolves -strategy through the algorithm registry:
// "all" instantiates every registered online strategy (weakest first, so
// the report table reads baseline-to-best), anything else is a name or
// alias, with unknown names reporting the registered list. A positive
// budget is handed to admission-control strategies (online-budget);
// without one they would silently degenerate to plain BestFit, so "all"
// drops them and naming one explicitly is an error.
func pickStrategies(name string, budget int64) ([]online.Strategy, error) {
	withBudget := func(st online.Strategy) online.Strategy {
		if bs, ok := st.(online.BudgetSetter); ok && budget > 0 {
			bs.SetBudget(budget)
		}
		return st
	}
	if name == "all" {
		var sts []online.Strategy
		algs := busytime.Algorithms()
		for i := len(algs) - 1; i >= 0; i-- {
			if algs[i].Kind != busytime.KindOnline {
				continue
			}
			st := algs[i].NewStrategy()
			if _, needs := st.(online.BudgetSetter); needs && budget <= 0 {
				continue // without a budget the row would just repeat BestFit
			}
			sts = append(sts, withBudget(st))
		}
		return sts, nil
	}
	info, err := busytime.LookupAlgorithmKind(busytime.KindOnline, name)
	if err != nil {
		return nil, err
	}
	st := info.NewStrategy()
	if _, ok := st.(online.BudgetSetter); ok && budget <= 0 {
		return nil, fmt.Errorf("strategy %s needs -budget (it admits everything without one)", info.Name)
	}
	return []online.Strategy{withBudget(st)}, nil
}
