package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	busytime "repro"
	"repro/internal/conformance"
	"repro/internal/exact"
	"repro/internal/registry"
)

// runVerify is the `busysim verify` subcommand. By default it certifies
// one `busysim -json` document through Result.Certificate: the schedule
// respects capacity g at every time, the document's cost, scheduled and
// machine counts agree with the schedule, and the cost lies within the
// Observation 2.1 bounds. For small instances it also prints the exact
// optimality gap.
//
// With -conformance it instead runs the registry-driven conformance
// harness (internal/conformance): every registered algorithm, or just
// the one named by -alg, is exercised on seeded instances of its
// declared classes with certificate, lower-bound, oracle-guarantee and
// metamorphic checks; violations are printed as shrunk, reproducible Go
// literals and make the command fail.
func runVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("busysim verify", flag.ContinueOnError)
	var (
		inFile = fs.String("in", "", "schedule JSON produced by busysim -json (default stdin)")
		conf   = fs.Bool("conformance", false, "run the registry-driven conformance harness instead of verifying a schedule")
		algo   = fs.String("alg", "", "restrict -conformance to one registered algorithm (canonical name or alias)")
		seeds  = fs.Int("seeds", 0, "instances per (algorithm, class, g) in -conformance mode (default harness setting)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *conf {
		return runConformance(out, *algo, *seeds)
	}

	var doc output
	if err := readJSON(*inFile, &doc); err != nil {
		return err
	}
	if err := doc.Instance.Validate(); err != nil {
		return err
	}
	res := busytime.ResultOf(doc.Algorithm, busytime.Schedule{Instance: doc.Instance, Machine: doc.Machine})
	// Certify the document's statistics, not ones rebuilt from its schedule.
	res.Cost, res.Scheduled = doc.Cost, doc.Scheduled

	fmt.Fprintf(out, "schedule: algorithm=%s class=%s n=%d g=%d\n",
		res.Algorithm, res.Class, res.N, doc.Instance.G)
	err := res.Certificate()
	if err == nil && res.Machines != doc.Machines {
		err = fmt.Errorf("reported %d machines, schedule uses %d", doc.Machines, res.Machines)
	}
	if err != nil {
		fmt.Fprintf(out, "valid: NO\n")
		return fmt.Errorf("INVALID schedule: %v", err)
	}
	fmt.Fprintf(out, "valid: yes (certificate passed)\n")
	fmt.Fprintf(out, "cost=%d machines=%d scheduled=%d/%d\n",
		res.Cost, res.Machines, res.Scheduled, res.N)
	fmt.Fprintf(out, "bounds: lower=%d length=%d ratio-vs-LB=%.4f\n",
		res.LowerBound, doc.Instance.TotalLen(), res.RatioVsBound)

	if res.Scheduled == res.N && res.N <= exact.MaxN {
		opt, err := exact.MinBusyCost(doc.Instance)
		if err == nil {
			fmt.Fprintf(out, "exact optimum=%d ratio=%.4f\n", opt, float64(res.Cost)/float64(opt))
		}
	}
	return nil
}

// runConformance drives the conformance harness and renders one row per
// algorithm, failing when any violation is found.
func runConformance(out io.Writer, algo string, seeds int) error {
	cfg := conformance.DefaultConfig()
	if seeds > 0 {
		cfg.Seeds = seeds
	}
	ctx := context.Background()

	var outs []conformance.Outcome
	if algo != "" {
		alg, err := registry.Lookup(algo)
		if err != nil {
			return err
		}
		o, err := conformance.CheckAlgorithm(ctx, alg, cfg)
		if err != nil {
			return err
		}
		outs = append(outs, o)
	} else {
		var err error
		outs, err = conformance.CheckAll(ctx, cfg)
		if err != nil {
			return err
		}
	}

	fmt.Fprint(out, conformance.Table(outs).String())
	violations := 0
	for _, o := range outs {
		for _, v := range o.Violations {
			fmt.Fprintf(out, "\nVIOLATION %s\n", v)
		}
		violations += len(o.Violations)
	}
	if violations > 0 {
		return fmt.Errorf("%d conformance violations", violations)
	}
	fmt.Fprintf(out, "conformance: all %d algorithms clean\n", len(outs))
	return nil
}
