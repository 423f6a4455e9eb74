package conformance_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/registry"
)

// brokenTestDoubleRef marks deliberately broken registrations used to
// prove the harness detects violations. TestEveryRegisteredAlgorithm
// skips entries carrying it; every other registration must conform.
const brokenTestDoubleRef = "conformance: broken test double"

// TestEveryRegisteredAlgorithm is the acceptance gate of the harness:
// every algorithm name returned by registry.List() is exercised on
// seeded instances of its declared classes — note no algorithm is named
// anywhere in this test — and none may violate the invariant suite.
func TestEveryRegisteredAlgorithm(t *testing.T) {
	cfg := conformance.DefaultConfig()
	outs, err := conformance.CheckAll(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(outs), len(registry.List()); got != want {
		t.Fatalf("harness produced %d outcomes for %d registered algorithms", got, want)
	}
	for _, out := range outs {
		if out.Ref == brokenTestDoubleRef {
			continue // detection of these is asserted separately below
		}
		if out.Checked == 0 {
			t.Errorf("%s (%s): no generated instance exercised the algorithm (rejected %d)",
				out.Algorithm, out.Kind, out.Rejected)
		}
		for _, v := range out.Violations {
			t.Errorf("conformance violation:\n%s", v)
		}
	}
}

// TestDummyRegistrationIsPickedUp registers a brand-new (conformant)
// algorithm and verifies the harness exercises it with zero violations,
// proving future registrations are covered automatically.
func TestDummyRegistrationIsPickedUp(t *testing.T) {
	const name = "test-double-naive"
	if _, err := registry.Lookup(name); err != nil {
		err := registry.Register(registry.Algorithm{
			Name: name, Kind: registry.MinBusy,
			Guarantee: "g", Ratio: func(g int) float64 { return float64(g) },
			Ref: "conformance: test double", Strength: -1,
			SolveMinBusy: func(_ context.Context, in job.Instance) (core.Schedule, error) {
				return core.NaivePerJob(in), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	outs, err := conformance.CheckAll(context.Background(), conformance.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range outs {
		if out.Algorithm != name {
			continue
		}
		if out.Checked == 0 {
			t.Fatalf("dummy registration was not exercised: %+v", out)
		}
		if len(out.Violations) != 0 {
			t.Fatalf("conformant dummy flagged: %v", out.Violations[0])
		}
		return
	}
	t.Fatalf("dummy registration %q missing from CheckAll outcomes", name)
}

// TestHarnessDetectsBrokenAlgorithm registers an algorithm that falsely
// claims to be exact (it runs the naive per-job baseline) and verifies
// the harness flags it with a shrunk, reproducible counterexample.
func TestHarnessDetectsBrokenAlgorithm(t *testing.T) {
	const name = "test-double-broken-exact"
	if _, err := registry.Lookup(name); err != nil {
		err := registry.Register(registry.Algorithm{
			Name: name, Kind: registry.MinBusy,
			Guarantee: "exact (falsely claimed)", Ratio: func(int) float64 { return 1 },
			Exact: true, Ref: brokenTestDoubleRef, Strength: -2,
			SolveMinBusy: func(_ context.Context, in job.Instance) (core.Schedule, error) {
				return core.NaivePerJob(in), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	alg, err := registry.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	out, err := conformance.CheckAlgorithm(context.Background(), alg, conformance.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) == 0 {
		t.Fatal("harness did not flag an algorithm that falsely claims optimality")
	}
	v := out.Violations[0]
	// Naive-per-job breaks the false optimality claim in two ways: the
	// oracle guarantee (two overlapping jobs pack cheaper) and the
	// duplication law (doubling capacity must not raise an optimal cost,
	// which already fails with a single job). Either is a correct catch.
	if v.Property != "guarantee" && v.Property != "metamorphic-duplication" {
		t.Errorf("violation property = %q, want guarantee or metamorphic-duplication", v.Property)
	}
	if v.Instance == nil || len(v.Instance.Jobs) == 0 {
		t.Fatal("violation carries no shrunk instance")
	}
	// The shrinker must have minimized: one job suffices for the
	// duplication law, two overlapping jobs for the guarantee.
	if got := len(v.Instance.Jobs); got > 2 {
		t.Errorf("shrunk instance has %d jobs, want <= 2", got)
	}
	if !strings.Contains(v.Literal(), "job.Instance{") {
		t.Errorf("violation literal is not a Go literal:\n%s", v.Literal())
	}
	// The emitted literal's instance must itself reproduce the failure.
	if err := conformance.CheckInstance(context.Background(), alg, *v.Instance); err == nil {
		t.Error("shrunk counterexample no longer fails the invariant suite")
	}
}

// TestKnownSetCoverCounterexample pins the fuzz-found instance on which
// the combined clique set cover exceeds the paper's Lemma 3.2 bound
// g·H_g/(H_g+g−1) while staying within the H_g bound the registry now
// claims (the modified-weight partition step loses the classical H_g
// charging argument because g·span−len is not subset-monotone). If a
// future change makes this instance meet the sharper bound again, this
// test flags that the registered Ratio can be tightened back.
func TestKnownSetCoverCounterexample(t *testing.T) {
	in := job.Instance{G: 2, Jobs: []job.Job{
		job.New(0, 127, 131),
		job.New(1, 120, 130),
	}}
	s, err := core.CliqueSetCover(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	const opt = 11                                // both jobs share one machine: span of [120,131)
	paperBound := 2.0 * 1.5 / (1.5 + 2 - 1) * opt // g·H_g/(H_g+g−1)·OPT = 13.2
	hgBound := 1.5 * opt                          // H_2·OPT = 16.5
	cost := float64(s.Cost())
	if cost <= paperBound {
		t.Errorf("counterexample now meets the Lemma 3.2 bound (cost %.0f ≤ %.1f); consider restoring the sharper registered Ratio", cost, paperBound)
	}
	if cost > hgBound {
		t.Errorf("cost %.0f exceeds even the H_g bound %.1f", cost, hgBound)
	}
	// The conformance suite must accept the instance under the registered
	// H_g ratio.
	alg, err := registry.Lookup("clique-set-cover")
	if err != nil {
		t.Fatal(err)
	}
	if err := conformance.CheckInstance(context.Background(), alg, in); err != nil {
		t.Errorf("CheckInstance rejects the pinned counterexample under the H_g ratio: %v", err)
	}
}

// TestCheckInstanceRejectsInvalid pins the rejection path: structurally
// invalid instances are counted as rejections, not violations.
func TestCheckInstanceRejectsInvalid(t *testing.T) {
	alg := registry.List()[0]
	err := conformance.CheckInstance(context.Background(), alg, job.Instance{G: 0})
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("invalid instance not rejected: %v", err)
	}
}

// TestGoLiteralRoundTrips spot-checks the emitted literal shape.
func TestGoLiteralRoundTrips(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15})
	lit := conformance.GoLiteral(in)
	for _, want := range []string{"job.Instance{G: 2", "interval.New(0, 10)", "interval.New(5, 15)", "Weight: 1", "Demand: 1"} {
		if !strings.Contains(lit, want) {
			t.Errorf("literal missing %q:\n%s", want, lit)
		}
	}
}
