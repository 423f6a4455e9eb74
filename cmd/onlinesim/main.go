// Command onlinesim replays busy-time scheduling instances through the
// online strategies in arrival order and reports each strategy's cost,
// machine usage, and empirical competitive ratio against the offline
// algorithms (and the exact oracle on small instances).
//
// Usage examples:
//
//	onlinesim -workload arrivals -n 30 -g 3 -seed 7
//	onlinesim -workload adversarial -g 4 -longlen 400
//	onlinesim -workload bursty -n 50 -g 4 -strategy firstfit -json
//	onlinesim -in instance.json -strategy all
//
// With -json the reports are printed as JSON for piping into other tools;
// otherwise a fixed-width table is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	busytime "repro"
	"repro/internal/exact"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/online"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "arrivals", "workload family: "+strings.Join(workload.Names(), "|")+"|adversarial")
		n            = flag.Int("n", 20, "number of jobs")
		g            = flag.Int("g", 2, "machine capacity (parallelism parameter)")
		seed         = flag.Int64("seed", 1, "random seed")
		maxTime      = flag.Int64("maxtime", 200, "workload horizon")
		maxLen       = flag.Int64("maxlen", 50, "maximum job length")
		longLen      = flag.Int64("longlen", 0, "long-job length for the adversarial family (default 100g)")
		strategyName = flag.String("strategy", "all", "strategy: all|"+strings.Join(busytime.AlgorithmNames(busytime.KindOnline), "|"))
		budget       = flag.Int64("budget", 0, "busy-time budget for admission-control strategies (required by online-budget; without it \"all\" skips them)")
		inFile       = flag.String("in", "", "load instance JSON instead of generating")
		outJSON      = flag.Bool("json", false, "emit JSON output")
	)
	flag.Parse()

	in, err := buildInstance(*inFile, *workloadName, *seed, *longLen,
		workload.Config{N: *n, G: *g, MaxTime: *maxTime, MaxLen: *maxLen})
	if err != nil {
		fatal(err)
	}
	if err := in.Validate(); err != nil {
		fatal(err)
	}
	strategies, err := pickStrategies(*strategyName, *budget)
	if err != nil {
		fatal(err)
	}
	reports, err := busytime.CompareOnline(in, strategies...)
	if err != nil {
		fatal(err)
	}

	if *outJSON {
		emitJSON(in, reports)
		return
	}
	emitText(in, reports)
}

func buildInstance(path, family string, seed, longLen int64, cfg workload.Config) (job.Instance, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return job.Instance{}, err
		}
		var in job.Instance
		if err := json.Unmarshal(data, &in); err != nil {
			return job.Instance{}, fmt.Errorf("parsing %s: %v", path, err)
		}
		return in, nil
	}
	if family == "adversarial" {
		if longLen <= 0 {
			longLen = 100 * int64(cfg.G)
		}
		return workload.AdversarialFirstFit(cfg.G, longLen)
	}
	return workload.ByName(family, seed, cfg)
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

func emitText(in job.Instance, reports []online.Report) {
	fmt.Printf("instance: n=%d g=%d class=%s len=%d span=%d LB=%d\n",
		len(in.Jobs), in.G, igraph.Classify(in.Jobs), in.TotalLen(), in.Span(), in.LowerBound())
	if len(reports) == 0 {
		return
	}
	r0 := reports[0]
	fmt.Printf("offline: %s cost=%d", r0.OfflineAlg, r0.OfflineCost)
	if r0.HasExact {
		fmt.Printf("  exact cost=%d", r0.ExactCost)
	} else {
		fmt.Printf("  exact skipped (n > %d)", exact.MaxN)
	}
	fmt.Println()

	t := stats.Table{Header: []string{"strategy", "cost", "machines", "peak", "rejected", "vs-offline", "vs-exact", "vs-LB"}}
	for _, r := range reports {
		vsExact := "-"
		if r.HasExact {
			vsExact = fmt.Sprintf("%.3f", r.VsExact())
		}
		t.Add(r.Strategy, r.Cost, r.Machines, r.PeakOpen, r.Rejected,
			fmt.Sprintf("%.3f", r.VsOffline()), vsExact, fmt.Sprintf("%.3f", r.VsLowerBound()))
	}
	fmt.Print(t.String())
}

type output struct {
	N       int             `json:"n"`
	G       int             `json:"g"`
	Class   string          `json:"class"`
	Reports []online.Report `json:"reports"`
}

func emitJSON(in job.Instance, reports []online.Report) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(output{
		N:       len(in.Jobs),
		G:       in.G,
		Class:   igraph.Classify(in.Jobs).String(),
		Reports: reports,
	}); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "onlinesim:", err)
	os.Exit(1)
}
