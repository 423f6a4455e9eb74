package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/stats"
)

// runExperiments is the `busysim experiments` subcommand: it runs the
// E1…E18 experiment suite, or the one experiment named by -only, and
// prints the rendered tables. E16 is the registry-driven conformance
// harness: it walks the algorithm registry, so a newly registered
// algorithm appears in its table automatically. E17 cross-checks the
// streaming online sessions against the offline replay harness. E18
// measures the reoptimization layer: warm-started delta solves against
// solve-from-scratch. -algorithms prints the algorithm registry instead.
func runExperiments(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("busysim experiments", flag.ContinueOnError)
	var (
		only     = fs.String("only", "", "run a single experiment by ID (e.g. E3)")
		seeds    = fs.Int("seeds", experiments.Seeds, "random instances per configuration")
		listAlgs = fs.Bool("algorithms", false, "print the algorithm registry table and exit")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *listAlgs {
		fmt.Fprint(out, algorithmTable())
		return nil
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
	}

	runners := []struct {
		id  string
		run func() experiments.Result
	}{
		{"E1", func() experiments.Result { return experiments.E1(*seeds) }},
		{"E2", func() experiments.Result { return experiments.E2(*seeds) }},
		{"E3", func() experiments.Result { return experiments.E3(*seeds) }},
		{"E4", func() experiments.Result { return experiments.E4(*seeds) }},
		{"E5", experiments.E5},
		{"E6", func() experiments.Result { return experiments.E6(min(*seeds, 15)) }},
		{"E7", func() experiments.Result { return experiments.E7(*seeds) }},
		{"E8", func() experiments.Result { return experiments.E8(min(*seeds, 30)) }},
		{"E9", func() experiments.Result { return experiments.E9(*seeds) }},
		{"E10", func() experiments.Result { return experiments.E10(min(*seeds, 30)) }},
		{"E11", func() experiments.Result { return experiments.E11(*seeds) }},
		{"E13", func() experiments.Result { return experiments.E13(min(*seeds, 20)) }},
		{"E14", func() experiments.Result { return experiments.E14(min(*seeds, 30)) }},
		{"E15", func() experiments.Result { return experiments.E15(min(*seeds, 30)) }},
		{"E16", func() experiments.Result { return experiments.E16(min(*seeds, 5)) }},
		{"E17", func() experiments.Result { return experiments.E17(min(*seeds, 20)) }},
		{"E18", func() experiments.Result { return experiments.E18(min(*seeds, 10)) }},
	}
	if *only != "" {
		for _, r := range runners {
			if r.id == *only {
				fmt.Fprintln(out, r.run().String())
				return nil
			}
		}
		return fmt.Errorf("unknown id %q (E12 is covered by the unit test suite)", *only)
	}
	for _, r := range runners {
		fmt.Fprintln(out, r.run().String())
	}
	fmt.Fprintln(out, experiments.BoundTable(10).String())
	fmt.Fprintln(out, "note: E12 (Lemma 3.3 conflicting-triple invariant) is verified by unit tests in internal/core and internal/exact.")
	return nil
}

// algorithmTable renders the algorithm registry — the same data the
// Solver dispatches on and GET /v1/algorithms serves, so the printed
// table can never drift from the implementation.
func algorithmTable() string {
	t := stats.Table{Header: []string{"kind", "algorithm", "classes", "guarantee", "reference"}}
	for _, a := range server.WireAlgorithms() {
		classes := "all"
		if len(a.Classes) > 0 {
			classes = strings.Join(a.Classes, "|")
		}
		t.Add(a.Kind, a.Name, classes, a.Guarantee, a.Ref)
	}
	return t.String()
}
