package busytime_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	busytime "repro"
	"repro/internal/core"
	"repro/internal/online"
)

// TestRegistrySolverAutoMatchesMinBusy checks that the Solver's
// registry-driven auto dispatch matches pinning the algorithm it reports:
// on connected instances of every class, Solve and
// Solve(WithAlgorithm(res.Algorithm)) give the same machine assignment.
// A disconnected instance reports the "components:" merge, whose parts
// must each be a registered MinBusy algorithm.
func TestRegistrySolverAutoMatchesMinBusy(t *testing.T) {
	ctx := context.Background()
	solver := busytime.NewSolver()
	gens := map[string]func(seed int64, cfg busytime.WorkloadConfig) busytime.Instance{
		"general":       busytime.GenerateGeneral,
		"proper":        busytime.GenerateProper,
		"clique":        busytime.GenerateClique,
		"proper-clique": busytime.GenerateProperClique,
		"one-sided": func(seed int64, cfg busytime.WorkloadConfig) busytime.Instance {
			return busytime.GenerateOneSided(seed, cfg, seed%2 == 0)
		},
		"cloud": busytime.GenerateCloud,
	}
	for name, gen := range gens {
		for _, g := range []int{2, 3} {
			for seed := int64(0); seed < 12; seed++ {
				in := gen(seed, busytime.WorkloadConfig{N: 14, G: g, MaxTime: 150, MaxLen: 40})
				res, err := solver.Solve(ctx, busytime.Request{Instance: in})
				if err != nil {
					t.Fatalf("%s g=%d seed=%d: %v", name, g, seed, err)
				}
				if res.Scheduled != len(in.Jobs) {
					t.Errorf("%s g=%d seed=%d: %d/%d scheduled", name, g, seed, res.Scheduled, len(in.Jobs))
				}
				if err := res.Certificate(); err != nil {
					t.Errorf("%s g=%d seed=%d: certificate: %v", name, g, seed, err)
				}
				if parts, ok := strings.CutPrefix(res.Algorithm, "components:"); ok {
					for _, part := range strings.Split(parts, "+") {
						if _, err := busytime.LookupAlgorithmKind(busytime.KindMinBusy, part); err != nil {
							t.Errorf("%s g=%d seed=%d: merged %q: %v", name, g, seed, res.Algorithm, err)
						}
					}
					continue
				}
				pinned, err := busytime.NewSolver(busytime.WithAlgorithm(res.Algorithm)).
					Solve(ctx, busytime.Request{Instance: in})
				if err != nil {
					t.Fatalf("%s g=%d seed=%d: pinned %s: %v", name, g, seed, res.Algorithm, err)
				}
				if pinned.Algorithm != res.Algorithm || !reflect.DeepEqual(pinned.Schedule.Machine, res.Schedule.Machine) {
					t.Errorf("%s g=%d seed=%d: auto %s diverges from pinned %s\nauto:   %v\npinned: %v",
						name, g, seed, res.Algorithm, pinned.Algorithm, res.Schedule.Machine, pinned.Schedule.Machine)
				}
			}
		}
	}
}

// TestRegistrySolverAutoMatchesThroughput is the MaxThroughput analogue:
// auto dispatch (which never splits components) matches pinning the
// algorithm it reports.
func TestRegistrySolverAutoMatchesThroughput(t *testing.T) {
	ctx := context.Background()
	solver := busytime.NewSolver()
	for seed := int64(0); seed < 12; seed++ {
		for _, gen := range []func(seed int64, cfg busytime.WorkloadConfig) busytime.Instance{
			busytime.GenerateGeneral, busytime.GenerateClique, busytime.GenerateProperClique,
		} {
			in := gen(seed, busytime.WorkloadConfig{N: 12, G: 2, MaxTime: 120, MaxLen: 35})
			budget := in.TotalLen() / 2
			if budget == 0 {
				continue
			}
			req := busytime.Request{Instance: in, Kind: busytime.KindMaxThroughput, Budget: budget}
			res, err := solver.Solve(ctx, req)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			pinned, err := busytime.NewSolver(busytime.WithAlgorithm(res.Algorithm)).Solve(ctx, req)
			if err != nil {
				t.Fatalf("seed %d: pinned %s: %v", seed, res.Algorithm, err)
			}
			if pinned.Algorithm != res.Algorithm || !reflect.DeepEqual(pinned.Schedule.Machine, res.Schedule.Machine) {
				t.Errorf("seed %d: auto %s diverges from pinned %s", seed, res.Algorithm, pinned.Algorithm)
			}
			if res.Cost > budget {
				t.Errorf("seed %d: cost %d over budget %d", seed, res.Cost, budget)
			}
			if err := res.Certificate(); err != nil {
				t.Errorf("seed %d: certificate: %v", seed, err)
			}
		}
	}
}

// TestRegistrySolverNamedAlgorithm pins algorithms by name and alias,
// checks Result.Algorithm reports the canonical name, and checks that
// unknown names fail with the registered list (no usage string to
// hand-maintain).
func TestRegistrySolverNamedAlgorithm(t *testing.T) {
	ctx := context.Background()
	clique := busytime.GenerateClique(3, busytime.WorkloadConfig{N: 10, G: 2, MaxTime: 100, MaxLen: 30})
	for _, name := range []string{"clique-matching", "matching"} {
		res, err := busytime.NewSolver(busytime.WithAlgorithm(name)).Solve(ctx, busytime.Request{Instance: clique})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Algorithm != "clique-matching" {
			t.Errorf("%s: reported %q", name, res.Algorithm)
		}
		if err := res.Certificate(); err != nil {
			t.Errorf("%s: certificate: %v", name, err)
		}
	}
	// A pinned algorithm that rejects the instance surfaces its error.
	general := busytime.GenerateGeneral(1, busytime.WorkloadConfig{N: 10, G: 2, MaxTime: 100, MaxLen: 30})
	if _, err := busytime.NewSolver(busytime.WithAlgorithm("matching")).Solve(ctx, busytime.Request{Instance: general}); err == nil {
		t.Error("clique-matching accepted a general instance")
	}
	// Unknown names report the full algorithm list.
	_, err := busytime.NewSolver(busytime.WithAlgorithm("bogus")).Solve(ctx, busytime.Request{Instance: clique})
	if err == nil || !strings.Contains(err.Error(), "first-fit") {
		t.Errorf("unknown algorithm error does not list algorithms: %v", err)
	}
}

// TestRegistrySolverCancellation checks the two cancellation paths: the
// exact oracle aborts mid-DP, and Solve refuses to start on a dead
// context.
func TestRegistrySolverCancellation(t *testing.T) {
	in := busytime.GenerateGeneral(1, busytime.WorkloadConfig{N: 18, G: 3, MaxTime: 200, MaxLen: 60})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opt := range []busytime.SolverOption{
		busytime.WithAlgorithm("exact"),
		busytime.WithExactThreshold(18),
	} {
		_, err := busytime.NewSolver(opt).Solve(ctx, busytime.Request{Instance: in})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("want context.Canceled, got %v", err)
		}
	}
	_, err := busytime.NewSolver(busytime.WithAlgorithm("exact-throughput"), busytime.WithBudget(100)).
		Solve(ctx, busytime.Request{Instance: in, Kind: busytime.KindMaxThroughput})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("throughput oracle: want context.Canceled, got %v", err)
	}
}

// TestRegistrySolverExactThreshold routes small instances to the oracle.
func TestRegistrySolverExactThreshold(t *testing.T) {
	ctx := context.Background()
	in := busytime.GenerateGeneral(5, busytime.WorkloadConfig{N: 10, G: 3, MaxTime: 100, MaxLen: 30})
	res, err := busytime.NewSolver(busytime.WithExactThreshold(12)).Solve(ctx, busytime.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "exact" {
		t.Fatalf("algorithm = %q, want exact", res.Algorithm)
	}
	auto, err := busytime.NewSolver().Solve(ctx, busytime.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > auto.Cost {
		t.Errorf("exact cost %d worse than auto %d", res.Cost, auto.Cost)
	}
	if err := res.Certificate(); err != nil {
		t.Error(err)
	}
}

// TestRegistrySolverLocalSearch checks WithLocalSearch never worsens the
// schedule and marks the algorithm name.
func TestRegistrySolverLocalSearch(t *testing.T) {
	ctx := context.Background()
	in := busytime.GenerateGeneral(7, busytime.WorkloadConfig{N: 30, G: 3, MaxTime: 200, MaxLen: 60})
	plain, err := busytime.NewSolver().Solve(ctx, busytime.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	improved, err := busytime.NewSolver(busytime.WithLocalSearch(0)).Solve(ctx, busytime.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if improved.Cost > plain.Cost {
		t.Errorf("local search worsened cost: %d > %d", improved.Cost, plain.Cost)
	}
	if !strings.HasSuffix(improved.Algorithm, "+local-search") {
		t.Errorf("algorithm %q lacks +local-search suffix", improved.Algorithm)
	}
	if err := improved.Certificate(); err != nil {
		t.Error(err)
	}
}

// TestRegistrySolverParallelism checks component-parallel solving is
// bit-identical to sequential solving on a disconnected instance.
func TestRegistrySolverParallelism(t *testing.T) {
	ctx := context.Background()
	// Widely-spaced clusters: guaranteed disconnected.
	var spans [][2]int64
	for c := int64(0); c < 6; c++ {
		base := c * 1000
		spans = append(spans, [2]int64{base, base + 50}, [2]int64{base + 10, base + 60}, [2]int64{base + 20, base + 40})
	}
	in := busytime.NewInstance(2, spans...)
	seq, err := busytime.NewSolver().Solve(ctx, busytime.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	par, err := busytime.NewSolver(busytime.WithParallelism(4)).Solve(ctx, busytime.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(seq.Algorithm, "components:") {
		t.Fatalf("expected a components merge, got %q", seq.Algorithm)
	}
	if seq.Algorithm != par.Algorithm || seq.Cost != par.Cost || seq.Machines != par.Machines {
		t.Errorf("parallel solve diverged: %q/%d/%d vs %q/%d/%d",
			seq.Algorithm, seq.Cost, seq.Machines, par.Algorithm, par.Cost, par.Machines)
	}
	if err := par.Certificate(); err != nil {
		t.Error(err)
	}
}

// TestRegistrySolverOnline runs the online kind through the Solver and
// cross-checks against a direct replay.
func TestRegistrySolverOnline(t *testing.T) {
	ctx := context.Background()
	in := busytime.GenerateArrivals(9, busytime.WorkloadConfig{N: 20, G: 3, MaxTime: 150, MaxLen: 40})
	res, err := busytime.NewSolver(busytime.WithAlgorithm("firstfit")).
		Solve(ctx, busytime.Request{Instance: in, Kind: busytime.KindOnline})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := online.Replay(in, online.FirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "online-firstfit" || res.Cost != direct.Cost ||
		res.MachinesOpened != direct.MachinesOpened || res.PeakOpen != direct.PeakOpen {
		t.Errorf("solver online run %+v diverges from direct replay %+v", res, direct)
	}
	if err := res.Certificate(); err != nil {
		t.Error(err)
	}
	// Auto mode picks the strongest registered strategy.
	auto, err := busytime.NewSolver().Solve(ctx, busytime.Request{Instance: in, Kind: busytime.KindOnline})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Algorithm != "online-bestfit" {
		t.Errorf("auto online strategy = %q", auto.Algorithm)
	}
}

// TestRegistrySolverOnlineBudgeted pins the admission-control semantics
// of the online kind: the request's budget reaches the strategy, the run
// never overspends, and the reported lower bound (and ratio) cover the
// admitted arrivals only — an admission run is not charged for what it
// rejected, and a full-instance bound would push the ratio below 1.
func TestRegistrySolverOnlineBudgeted(t *testing.T) {
	ctx := context.Background()
	in := busytime.GenerateWeightedArrivals(5, busytime.WorkloadConfig{N: 150, G: 3, MaxTime: 600, MaxLen: 50})
	budget := in.LowerBound() / 2 // tight: forces rejections
	res, err := busytime.NewSolver(busytime.WithAlgorithm("online-budget")).
		Solve(ctx, busytime.Request{Instance: in, Kind: busytime.KindOnline, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("tight budget rejected nothing")
	}
	if res.Cost > budget || res.Budget != budget {
		t.Errorf("cost %d / echoed budget %d against budget %d", res.Cost, res.Budget, budget)
	}
	if res.RatioVsBound < 1 {
		t.Errorf("ratio vs bound %.4f < 1: lower bound not restricted to admitted arrivals", res.RatioVsBound)
	}
	direct, err := online.Replay(in, online.Budgeted(budget))
	if err != nil {
		t.Fatal(err)
	}
	admitted := busytime.Instance{G: in.G}
	for i, m := range direct.Schedule.Machine {
		if m != busytime.Unscheduled {
			admitted.Jobs = append(admitted.Jobs, in.Jobs[i])
		}
	}
	if want := admitted.LowerBound(); res.LowerBound != want || direct.LowerBound != want {
		t.Errorf("lower bound %d (replay %d), want admitted-only bound %d", res.LowerBound, direct.LowerBound, want)
	}
	if err := res.Certificate(); err != nil {
		t.Error(err)
	}
	// The Solver default budget (WithBudget) is a max-throughput
	// fallback and must not leak into online runs.
	plain, err := busytime.NewSolver(busytime.WithAlgorithm("online-budget"), busytime.WithBudget(budget)).
		Solve(ctx, busytime.Request{Instance: in, Kind: busytime.KindOnline})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rejected != 0 || plain.Budget != 0 {
		t.Errorf("WithBudget leaked into an online run: %d rejected, budget %d", plain.Rejected, plain.Budget)
	}
}

// TestRegistrySolverRect solves the 2-D kind, auto and named.
func TestRegistrySolverRect(t *testing.T) {
	ctx := context.Background()
	in := busytime.GenerateBoundedGammaRects(5, busytime.WorkloadConfig{N: 30, G: 3, MaxTime: 200, MaxLen: 60}, 4)
	auto, err := busytime.NewSolver().Solve(ctx, busytime.Request{Rect: &in})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Algorithm != "bucket-first-fit" || auto.Rect == nil {
		t.Fatalf("auto 2-D solve = %q, rect %v", auto.Algorithm, auto.Rect != nil)
	}
	if err := auto.Certificate(); err != nil {
		t.Error(err)
	}
	named, err := busytime.NewSolver(busytime.WithAlgorithm("ff2d")).Solve(ctx, busytime.Request{Rect: &in})
	if err != nil {
		t.Fatal(err)
	}
	direct := core.FirstFit2D(in)
	if named.Cost != direct.Cost() {
		t.Errorf("named 2-D cost %d, direct %d", named.Cost, direct.Cost())
	}
}

// TestRegistrySolverBudgetOption checks WithBudget supplies the default
// and that a missing budget errors.
func TestRegistrySolverBudgetOption(t *testing.T) {
	ctx := context.Background()
	in := busytime.GenerateProperClique(2, busytime.WorkloadConfig{N: 10, G: 2, MaxTime: 100, MaxLen: 30})
	budget := in.TotalLen() / 2
	res, err := busytime.NewSolver(busytime.WithBudget(budget)).
		Solve(ctx, busytime.Request{Instance: in, Kind: busytime.KindMaxThroughput})
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget != budget {
		t.Errorf("effective budget %d, want %d", res.Budget, budget)
	}
	if _, err := busytime.NewSolver().Solve(ctx, busytime.Request{
		Instance: in, Kind: busytime.KindMaxThroughput, Budget: -1,
	}); err == nil {
		t.Error("negative budget accepted")
	}
}

// TestRegistryCertificateDetectsViolations corrupts Results and expects
// Certificate to reject each corruption.
func TestRegistryCertificateDetectsViolations(t *testing.T) {
	ctx := context.Background()
	in := busytime.GenerateProperClique(4, busytime.WorkloadConfig{N: 8, G: 2, MaxTime: 80, MaxLen: 25})
	res, err := busytime.NewSolver().Solve(ctx, busytime.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Certificate(); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}

	costLie := res
	costLie.Cost++
	if costLie.Certificate() == nil {
		t.Error("cost mismatch passed")
	}

	tputLie := res
	tputLie.Scheduled--
	if tputLie.Certificate() == nil {
		t.Error("throughput mismatch passed")
	}

	// Cram every job onto one machine: capacity violation.
	overload := res
	overload.Schedule.Machine = make([]int, len(in.Jobs))
	overload.Cost = overload.Schedule.Cost()
	if overload.Certificate() == nil && in.G < len(in.Jobs) {
		t.Error("capacity violation passed")
	}

	over := res
	over.Kind = busytime.KindMaxThroughput
	over.Budget = res.Cost - 1
	if over.Certificate() == nil {
		t.Error("budget violation passed")
	}
}

// TestRegistryFacadeViews sanity-checks the facade re-exports of the
// registry: list, kind-scoped names and the strongest-for-class view.
func TestRegistryFacadeViews(t *testing.T) {
	if len(busytime.Algorithms()) < 15 {
		t.Error("Algorithms() incomplete")
	}
	a, err := busytime.AlgorithmFor(busytime.KindMinBusy, busytime.ClassProperClique)
	if err != nil || a.Name != "find-best-consecutive" {
		t.Errorf("AlgorithmFor = %v, %v", a.Name, err)
	}
	if _, err := busytime.LookupAlgorithm("one-sided-greedy"); err != nil {
		t.Error(err)
	}
	names := busytime.AlgorithmNames(busytime.KindMinBusy2D)
	if len(names) != 4 { // three polynomial algorithms + the exact-2d oracle
		t.Errorf("2-D names = %v", names)
	}
	if _, err := busytime.LookupAlgorithm("exact-2d"); err != nil {
		t.Error(err)
	}
}

// TestRegistryResultOf checks the schedule-wrapping constructor used by
// busysim verify.
func TestRegistryResultOf(t *testing.T) {
	in := busytime.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15})
	solved, err := busytime.NewSolver().Solve(context.Background(), busytime.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	res := busytime.ResultOf(solved.Algorithm, solved.Schedule)
	if err := res.Certificate(); err != nil {
		t.Fatal(err)
	}
	if res.Cost != solved.Cost || res.N != 2 || res.Class != busytime.ClassProperClique {
		t.Errorf("ResultOf stats wrong: %+v", res)
	}

	// A machine array longer than the job list (malformed JSON input)
	// must surface as a certificate failure, not a panic.
	bad := busytime.ResultOf("first-fit",
		busytime.Schedule{Instance: in, Machine: []int{0, 0, 0, 0, 0}})
	if err := bad.Certificate(); err == nil {
		t.Error("oversized machine array passed certification")
	}
}

// TestRegistrySolverRectKindNeedsRect pins the error for a 2-D request
// that carries no rectangle instance.
func TestRegistrySolverRectKindNeedsRect(t *testing.T) {
	_, err := busytime.NewSolver().Solve(context.Background(),
		busytime.Request{Kind: busytime.KindMinBusy2D})
	if err == nil {
		t.Fatal("KindMinBusy2D without Rect accepted")
	}
}
