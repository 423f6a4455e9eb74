// Command busysim drives the library offline. Without a subcommand it
// generates or loads busy-time scheduling instances, runs a chosen
// algorithm through the Solver API, and reports cost, throughput,
// machine count and validity:
//
//	busysim -workload clique -n 20 -g 2 -seed 7 -alg auto
//	busysim -workload proper -n 50 -g 4 -alg best-cut -json
//	busysim -in instance.json -alg first-fit
//	busysim -workload proper-clique -n 30 -g 3 -alg throughput -budget 500
//	busysim -workload general -n 12 -g 2 -alg exact
//
// -alg accepts any registered algorithm name or alias (the historical
// short spellings keep working), plus "auto" (MinBusy dispatch) and
// "throughput" (MaxThroughput dispatch, needs -budget). An unknown name
// lists the registry. With -json the instance and schedule are printed
// as JSON for piping into other tools (busysim verify consumes it);
// otherwise a human-readable summary is printed.
//
// Each subcommand takes its own flags, which -h lists:
//
//	busysim online -workload adversarial -g 4 -longlen 400
//	busysim rect -workload fig3 -g 12 -gamma 2 -alg all
//	busysim verify -in out.json
//	busysim experiments -only E5
//	busysim loadgen -addr http://127.0.0.1:8080 -batches 64 -batch 32 -concurrency 8
//	busysim stream -addr http://127.0.0.1:8080 -workload weighted -n 500 -g 4 -strategy online-budget -budget 2000
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	busytime "repro"
	"repro/internal/job"
	"repro/internal/render"
	"repro/internal/workload"
)

// subcommands maps each subcommand name to its mode; any other first
// argument runs the default single solve.
var subcommands = map[string]func(args []string, out io.Writer) error{
	"online":      runOnline,
	"rect":        runRect,
	"verify":      runVerify,
	"experiments": runExperiments,
	"loadgen":     runLoadgen,
	"stream":      runStream,
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errFlags):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "busysim:", err)
		os.Exit(1)
	}
}

// run dispatches args to a subcommand, or to the default solve.
func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		if mode, ok := subcommands[args[0]]; ok {
			return mode(args[1:], out)
		}
	}
	return runSolve(args, out)
}

// errFlags marks a malformed command line, which the FlagSet has already
// reported; main exits 2 on it, as flag.ExitOnError would.
var errFlags = errors.New("malformed flags")

// parseFlags parses args into fs, reporting every failure but -h as errFlags.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && err != flag.ErrHelp {
		return errFlags
	}
	return err
}

// instanceFlags holds the workload flags shared by every mode that
// solves or streams one-dimensional instances.
type instanceFlags struct {
	family string
	seed   int64
	cfg    workload.Config
	path   string // -in; empty generates the family instead
}

// addInstanceFlags registers -workload -n -g -seed -maxtime -maxlen on
// fs with the mode's defaults, plus -in when the mode loads files.
func addInstanceFlags(fs *flag.FlagSet, family string, def workload.Config, withIn bool) *instanceFlags {
	f := &instanceFlags{}
	fs.StringVar(&f.family, "workload", family, "workload family: "+strings.Join(workload.Names(), "|"))
	fs.IntVar(&f.cfg.N, "n", def.N, "number of jobs")
	fs.IntVar(&f.cfg.G, "g", def.G, "machine capacity (parallelism parameter)")
	fs.Int64Var(&f.seed, "seed", 1, "random seed")
	fs.Int64Var(&f.cfg.MaxTime, "maxtime", def.MaxTime, "workload horizon")
	fs.Int64Var(&f.cfg.MaxLen, "maxlen", def.MaxLen, "maximum job length")
	if withIn {
		fs.StringVar(&f.path, "in", "", "load instance JSON instead of generating")
	}
	return f
}

// load reads the -in file, or else generates the -workload family, and
// validates the instance.
func (f *instanceFlags) load() (job.Instance, error) {
	if f.path == "" {
		return validated(workload.ByName(f.family, f.seed, f.cfg))
	}
	var in job.Instance
	return validated(in, readJSON(f.path, &in))
}

// validated passes on a generated or loaded instance once it validates.
func validated[T interface{ Validate() error }](in T, err error) (T, error) {
	if err == nil {
		err = in.Validate()
	}
	return in, err
}

// readJSON decodes the file at path, or standard input when path is
// empty, into v.
func readJSON(path string, v any) error {
	var data []byte
	var err error
	if path == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing %s: %v", cmp.Or(path, "standard input"), err)
	}
	return nil
}

// runSolve is the default mode: one instance, one Solver run.
func runSolve(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("busysim", flag.ContinueOnError)
	inst := addInstanceFlags(fs, "general", workload.Config{N: 20, G: 2, MaxTime: 200, MaxLen: 50}, true)
	var (
		alg         = fs.String("alg", "auto", "algorithm: auto|throughput|<registered name or alias>")
		budget      = fs.Int64("budget", -1, "busy-time budget for throughput algorithms")
		localSearch = fs.Bool("improve", false, "hill-climb the schedule after solving")
		outJSON     = fs.Bool("json", false, "emit JSON output")
		gantt       = fs.Bool("gantt", false, "draw an ASCII Gantt chart of the schedule")
		width       = fs.Int("width", 80, "Gantt chart width in columns")
		dump        = fs.Bool("dump", false, "print the instance JSON and exit without solving")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	in, err := inst.load()
	if err != nil {
		return err
	}
	if *dump {
		return encodeJSON(out, in)
	}

	res, err := solve(*alg, in, *budget, *localSearch)
	if err != nil {
		return err
	}
	if err := res.Certificate(); err != nil {
		return fmt.Errorf("algorithm %s produced an uncertifiable schedule: %v", res.Algorithm, err)
	}

	if *outJSON {
		return encodeJSON(out, output{
			Algorithm:    res.Algorithm,
			Class:        res.Class.String(),
			Cost:         res.Cost,
			Machines:     res.Machines,
			Scheduled:    res.Scheduled,
			N:            res.N,
			LowerBound:   res.LowerBound,
			RatioVsBound: res.RatioVsBound,
			ElapsedNS:    res.Elapsed.Nanoseconds(),
			Machine:      res.Schedule.CompactMachines().Machine,
			Instance:     in,
		})
	}
	fmt.Fprintf(out, "instance: n=%d g=%d class=%s len=%d span=%d LB=%d\n",
		res.N, in.G, res.Class, in.TotalLen(), in.Span(), res.LowerBound)
	fmt.Fprintf(out, "algorithm: %s (%v)\n", res.Algorithm, res.Elapsed.Round(1000))
	fmt.Fprintf(out, "cost=%d machines=%d scheduled=%d/%d saving=%d ratio-vs-LB=%.3f\n",
		res.Cost, res.Machines, res.Scheduled, res.N, res.Schedule.Saving(), res.RatioVsBound)
	if *gantt {
		fmt.Fprint(out, render.Gantt(res.Schedule, *width))
	}
	return nil
}

// solve maps the -alg flag onto a Solver run: "auto" and "throughput"
// use auto dispatch for their kinds, anything else resolves through the
// algorithm registry (which reports the full list on unknown names).
func solve(alg string, in job.Instance, budget int64, localSearch bool) (busytime.Result, error) {
	req := busytime.Request{Instance: in}
	var opts []busytime.SolverOption
	switch alg {
	case "auto":
		// MinBusy auto dispatch: no pinned algorithm.
	case "throughput":
		req.Kind = busytime.KindMaxThroughput
	default:
		info, err := lookupEither(alg)
		if err != nil {
			return busytime.Result{}, err
		}
		req.Kind = info.Kind
		opts = append(opts, busytime.WithAlgorithm(info.Name))
	}
	if req.Kind == busytime.KindMaxThroughput {
		if budget < 0 {
			return busytime.Result{}, fmt.Errorf("algorithm %q needs -budget", alg)
		}
		req.Budget = budget
	}
	if localSearch {
		opts = append(opts, busytime.WithLocalSearch(0))
	}
	return busytime.NewSolver(opts...).Solve(context.Background(), req)
}

// lookupEither resolves a name against the MinBusy registry first, then
// MaxThroughput, so both kinds' algorithms are reachable from one flag.
func lookupEither(name string) (busytime.AlgorithmInfo, error) {
	if info, err := busytime.LookupAlgorithmKind(busytime.KindMinBusy, name); err == nil {
		return info, nil
	}
	info, err := busytime.LookupAlgorithmKind(busytime.KindMaxThroughput, name)
	if err == nil {
		return info, nil
	}
	return busytime.AlgorithmInfo{}, fmt.Errorf("unknown algorithm %q; available: auto throughput %s %s",
		name,
		strings.Join(busytime.AlgorithmNames(busytime.KindMinBusy), " "),
		strings.Join(busytime.AlgorithmNames(busytime.KindMaxThroughput), " "))
}

// output is the -json document, and the input of busysim verify.
type output struct {
	Algorithm    string       `json:"algorithm"`
	Class        string       `json:"class"`
	Cost         int64        `json:"cost"`
	Machines     int          `json:"machines"`
	Scheduled    int          `json:"scheduled"`
	N            int          `json:"n"`
	LowerBound   int64        `json:"lower_bound"`
	RatioVsBound float64      `json:"ratio_vs_bound"`
	ElapsedNS    int64        `json:"elapsed_ns"`
	Machine      []int        `json:"machine"`
	Instance     job.Instance `json:"instance"`
}

// encodeJSON writes v as indented JSON, the format of every -json and
// -dump document.
func encodeJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
