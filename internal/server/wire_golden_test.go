package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	busytime "repro"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/workload"
)

// renderWireResults renders one WireResult JSON line, elapsed time
// zeroed, per family of workload.Names() at n ∈ {7, 40} and g ∈ {2, 4}
// (seed 1) for auto MinBusy, MaxThroughput at half the total length, and
// every registered online strategy; a strategy that takes a budget runs
// at 1.5 × the Observation 2.1 bound, which makes it reject.
func renderWireResults(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	line := func(label string, res busytime.Result, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		w := WireResult(res)
		w.ElapsedNS = 0
		out, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(&b, "%s %s\n", label, out)
	}
	for _, family := range workload.Names() {
		for _, n := range []int{7, 40} {
			for _, g := range []int{2, 4} {
				in, err := workload.ByName(family, 1, workload.Config{N: n, G: g, MaxTime: 200, MaxLen: 50})
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("%s n=%d g=%d", family, n, g)
				res, err := busytime.NewSolver().Solve(ctx, busytime.Request{Instance: in})
				line(at+" min-busy", res, err)
				res, err = busytime.NewSolver().Solve(ctx, busytime.Request{
					Instance: in, Kind: busytime.KindMaxThroughput, Budget: in.TotalLen() / 2,
				})
				line(at+" max-throughput", res, err)
				for _, name := range registry.Names(registry.Online) {
					alg, err := registry.LookupKind(registry.Online, name)
					if err != nil {
						t.Fatal(err)
					}
					req := busytime.Request{Instance: in, Kind: busytime.KindOnline}
					if _, ok := alg.NewStrategy().(online.BudgetSetter); ok {
						req.Budget = in.LowerBound() * 3 / 2
					}
					res, err := busytime.NewSolver(busytime.WithAlgorithm(name)).Solve(ctx, req)
					line(at+" "+name, res, err)
				}
			}
		}
	}
	return b.String()
}

// TestWireResultGolden pins the served bytes of every 1-D kind: cost,
// machines, online statistics, lower bound, ratio and certificate
// verdict. A change to any of them shows here as a line diff against
// testdata/wire_results.golden.
func TestWireResultGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "wire_results.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(renderWireResults(t), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Errorf("%d lines, golden has %d", len(got), len(wantLines))
	}
	diffs := 0
	for i := range min(len(got), len(wantLines)) {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\ngot:  %s\nwant: %s", i+1, got[i], wantLines[i])
			if diffs++; diffs == 5 {
				t.Fatal("stopping after 5 differing lines")
			}
		}
	}
}
