package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/workload"
)

func TestBuildInstanceFamilies(t *testing.T) {
	cfg := workload.Config{N: 8, G: 2, MaxTime: 100, MaxLen: 30}
	for _, family := range workload.Names() {
		in, err := (&instanceFlags{family: family, seed: 1, cfg: cfg}).load()
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if len(in.Jobs) != 8 {
			t.Errorf("%s: %d jobs", family, len(in.Jobs))
		}
	}
	if _, err := (&instanceFlags{family: "nope", seed: 1, cfg: cfg}).load(); err == nil {
		t.Error("unknown family accepted")
	}
	// The adversarial family exists only in the online mode.
	if _, err := (&instanceFlags{family: "adversarial", seed: 1, cfg: cfg}).load(); err == nil {
		t.Error("adversarial accepted outside the online mode")
	}
	if _, err := (&instanceFlags{family: "general", seed: 1, cfg: workload.Config{N: 8, G: 0, MaxTime: 100, MaxLen: 30}}).load(); err == nil {
		t.Error("-g 0 accepted")
	}
}

func TestBuildInstanceFromFile(t *testing.T) {
	path := writeInstance(t, job.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15}))
	got, err := (&instanceFlags{family: "ignored", path: path}).load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != 2 || got.G != 2 {
		t.Fatalf("loaded %+v", got)
	}
	if _, err := (&instanceFlags{path: filepath.Join(t.TempDir(), "missing.json")}).load(); err == nil {
		t.Error("missing file accepted")
	}
	invalid := filepath.Join(t.TempDir(), "invalid.json")
	if err := os.WriteFile(invalid, []byte(`{"g": 0, "jobs": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := (&instanceFlags{path: invalid}).load(); err == nil {
		t.Error("invalid instance accepted")
	}
}

// writeInstance stores in as JSON in a temporary file and returns its path.
func writeInstance(t *testing.T, in job.Instance) string {
	t.Helper()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSolveDispatch(t *testing.T) {
	clique := workload.Clique(1, workload.Config{N: 8, G: 2, MaxTime: 100, MaxLen: 30})
	properClique := workload.ProperClique(1, workload.Config{N: 8, G: 2, MaxTime: 100, MaxLen: 30})
	oneSided := workload.OneSided(1, workload.Config{N: 8, G: 2, MaxTime: 100, MaxLen: 30}, true)
	proper := workload.Proper(1, workload.Config{N: 8, G: 2, MaxTime: 100, MaxLen: 30})

	cases := []struct {
		alg    string
		in     job.Instance
		budget int64
		want   string // canonical name the registry resolves to ("" = any)
	}{
		{"auto", clique, -1, ""},
		{"naive", clique, -1, "naive-per-job"},
		{"firstfit", proper, -1, "first-fit"},
		{"bestcut", proper, -1, "best-cut"},
		{"matching", clique, -1, "clique-matching"},
		{"setcover", clique, -1, "clique-set-cover"},
		{"consecutive", properClique, -1, "find-best-consecutive"},
		{"onesided", oneSided, -1, "one-sided-greedy"},
		{"exact", clique, -1, "exact"},
		{"throughput", properClique, 100, ""},
		{"throughput-exact", clique, 100, "exact-throughput"},
		{"greedy-throughput", clique, 100, "greedy-throughput"},
	}
	for _, c := range cases {
		res, err := solve(c.alg, c.in, c.budget, false)
		if err != nil {
			t.Fatalf("%s: %v", c.alg, err)
		}
		if res.Algorithm == "" {
			t.Errorf("%s: empty algorithm name", c.alg)
		}
		if c.want != "" && res.Algorithm != c.want {
			t.Errorf("%s: resolved to %q, want %q", c.alg, res.Algorithm, c.want)
		}
		if err := res.Certificate(); err != nil {
			t.Errorf("%s: %v", c.alg, err)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	in := workload.General(1, workload.Config{N: 6, G: 2, MaxTime: 50, MaxLen: 20})
	_, err := solve("bogus", in, -1, false)
	if err == nil {
		t.Error("unknown algorithm accepted")
	}
	if !strings.Contains(err.Error(), "first-fit") || !strings.Contains(err.Error(), "greedy-throughput") {
		t.Errorf("error does not list the registry: %v", err)
	}
	if _, err := solve("throughput", in, -1, false); err == nil {
		t.Error("throughput without budget accepted")
	}
	if _, err := solve("matching", in, -1, false); err == nil {
		t.Error("matching on non-clique accepted")
	}
}

func TestSolveLocalSearch(t *testing.T) {
	in := workload.General(3, workload.Config{N: 20, G: 3, MaxTime: 150, MaxLen: 50})
	plain, err := solve("auto", in, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	improved, err := solve("auto", in, -1, true)
	if err != nil {
		t.Fatal(err)
	}
	if improved.Cost > plain.Cost {
		t.Errorf("-improve worsened cost: %d > %d", improved.Cost, plain.Cost)
	}
}

// TestGolden pins the stdout of the offline subcommands byte for byte.
// testdata/inst.json is the instance `busysim -workload general -n 10
// -g 2 -dump` prints.
func TestGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   string
	}{
		{"online-adversarial", "online -workload adversarial -g 4 -longlen 400"},
		{"online-bursty-json", "online -workload bursty -n 50 -g 4 -strategy firstfit -json"},
		{"online-in-all", "online -in testdata/inst.json -strategy all"},
		{"online-weighted-budget", "online -workload weighted -n 40 -g 3 -strategy all -budget 500"},
		{"rect-bucket", "rect -workload rects -n 60 -g 3 -gamma 8 -alg bucket"},
		{"rect-fig3-all", "rect -workload fig3 -g 12 -gamma 2 -alg all"},
		{"verify-conformance", "verify -conformance -alg clique-set-cover -seeds 2"},
		{"experiments-e5", "experiments -only E5"},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(strings.Fields(c.args), &out); err != nil {
				t.Fatalf("busysim %s: %v", c.args, err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("busysim %s:\ngot:\n%s\nwant:\n%s", c.args, got, want)
			}
		})
	}
}

// TestOutOfRangeFlags checks that out-of-range flag values come back as
// errors, not as generator panics or tables of zero instances.
func TestOutOfRangeFlags(t *testing.T) {
	for _, args := range []string{
		"rect -n -1",
		"rect -g 0",
		"rect -gamma 0",
		"experiments -seeds -3 -only E2",
		"experiments -seeds 0 -only E2",
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("busysim %s panicked: %v", args, r)
				}
			}()
			var out bytes.Buffer
			if err := run(strings.Fields(args), &out); err == nil {
				t.Errorf("busysim %s accepted:\n%s", args, out.String())
			}
		}()
	}
}

// TestFlagErrors checks the classification main exits on: -h is
// flag.ErrHelp (exit 0) and a malformed flag is errFlags (exit 2), in
// every mode.
func TestFlagErrors(t *testing.T) {
	// The FlagSets print usage to standard error; keep it out of the log.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = devnull
	t.Cleanup(func() { os.Stderr = stderr; devnull.Close() })

	modes := []string{""}
	for name := range subcommands {
		modes = append(modes, name)
	}
	for _, mode := range modes {
		args := strings.Fields(mode)
		var out bytes.Buffer
		if err := run(append(args, "-h"), &out); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%q -h: %v, want flag.ErrHelp", mode, err)
		}
		if err := run(append(args, "-no-such-flag"), &out); !errors.Is(err, errFlags) {
			t.Errorf("%q -no-such-flag: %v, want errFlags", mode, err)
		}
		if out.Len() != 0 {
			t.Errorf("%q wrote to stdout on a flag error:\n%s", mode, out.String())
		}
	}
}
