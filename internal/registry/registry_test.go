package registry_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/registry"
)

// TestRegistryRoundTrip checks that every registered algorithm resolves
// back to itself through Lookup (canonical name) and LookupKind (every
// alias).
func TestRegistryRoundTrip(t *testing.T) {
	algs := registry.List()
	if len(algs) < 15 {
		t.Fatalf("registry holds %d algorithms, expected the full built-in catalogue", len(algs))
	}
	for _, a := range algs {
		got, err := registry.Lookup(a.Name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", a.Name, err)
		}
		if got.Name != a.Name || got.Kind != a.Kind {
			t.Errorf("Lookup(%q) = %q (%s), want %q (%s)", a.Name, got.Name, got.Kind, a.Name, a.Kind)
		}
		for _, alias := range a.Aliases {
			got, err := registry.LookupKind(a.Kind, alias)
			if err != nil {
				t.Fatalf("LookupKind(%s, %q): %v", a.Kind, alias, err)
			}
			if got.Name != a.Name {
				t.Errorf("LookupKind(%s, %q) = %q, want %q", a.Kind, alias, got.Name, a.Name)
			}
		}
	}
}

// TestRegistryLookupErrors checks the two error shapes: an unknown name
// lists the available algorithms, and an alias shared across kinds is
// ambiguous without a kind.
func TestRegistryLookupErrors(t *testing.T) {
	_, err := registry.Lookup("no-such-algorithm")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	if !strings.Contains(err.Error(), "first-fit") {
		t.Errorf("error does not list available algorithms: %v", err)
	}
	// "naive" aliases naive-per-job, naive-2d and online-naive.
	if _, err := registry.Lookup("naive"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("cross-kind alias not reported ambiguous: %v", err)
	}
	if _, err := registry.LookupKind(registry.MinBusy, "naive"); err != nil {
		t.Errorf("kind-scoped alias failed: %v", err)
	}
	_, err = registry.LookupKind(registry.Online, "no-such-strategy")
	if err == nil || !strings.Contains(err.Error(), "online-firstfit") {
		t.Errorf("online lookup error does not list strategies: %v", err)
	}
}

// TestRegistryForStrongest pins For's choice per (kind, class) to the
// paper's dispatch table.
func TestRegistryForStrongest(t *testing.T) {
	cases := []struct {
		kind  registry.Kind
		class igraph.Class
		want  string
	}{
		{registry.MinBusy, igraph.OneSidedClique, "one-sided-greedy"},
		{registry.MinBusy, igraph.ProperClique, "find-best-consecutive"},
		{registry.MinBusy, igraph.Clique, "clique-matching"},
		{registry.MinBusy, igraph.Proper, "best-cut"},
		{registry.MinBusy, igraph.General, "first-fit"},
		{registry.MaxThroughput, igraph.OneSidedClique, "one-sided-throughput"},
		{registry.MaxThroughput, igraph.ProperClique, "most-throughput-consecutive"},
		{registry.MaxThroughput, igraph.Clique, "clique-throughput"},
		{registry.MaxThroughput, igraph.Proper, "greedy-throughput"},
		{registry.MaxThroughput, igraph.General, "greedy-throughput"},
		{registry.MinBusy2D, igraph.General, "bucket-first-fit"},
		{registry.Online, igraph.General, "online-bestfit"},
	}
	for _, c := range cases {
		got, err := registry.For(c.kind, c.class)
		if err != nil {
			t.Fatalf("For(%s, %s): %v", c.kind, c.class, err)
		}
		if got.Name != c.want {
			t.Errorf("For(%s, %s) = %q, want %q", c.kind, c.class, got.Name, c.want)
		}
		if got.Oracle {
			t.Errorf("For(%s, %s) returned the oracle %q", c.kind, c.class, got.Name)
		}
	}
}

// TestRegistryForAllChain checks the fallback chain is strength-ordered
// and oracle-free, and that class hierarchy applies (a proper clique
// instance may use clique and proper algorithms, but not vice versa).
func TestRegistryForAllChain(t *testing.T) {
	chain := registry.ForAll(registry.MinBusy, igraph.Clique)
	var names []string
	for _, a := range chain {
		if a.Oracle {
			t.Errorf("oracle %q in auto chain", a.Name)
		}
		names = append(names, a.Name)
	}
	want := []string{"clique-matching", "clique-set-cover", "first-fit", "naive-per-job"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("clique chain = %v, want %v", names, want)
	}

	for _, a := range registry.ForAll(registry.MinBusy, igraph.ProperClique) {
		if a.Name == "one-sided-greedy" {
			t.Error("one-sided algorithm offered for a plain proper clique")
		}
	}
	for _, a := range registry.ForAll(registry.MinBusy, igraph.General) {
		for _, c := range a.Classes {
			if c != igraph.General {
				t.Errorf("class-restricted %q offered for a general instance", a.Name)
			}
		}
	}
}

// TestRegistryRegisterRejectsBadEntries covers the registration guards.
func TestRegistryRegisterRejectsBadEntries(t *testing.T) {
	if err := registry.Register(registry.Algorithm{}); err == nil {
		t.Error("nameless algorithm accepted")
	}
	if err := registry.Register(registry.Algorithm{Name: "hookless", Kind: registry.MinBusy}); err == nil {
		t.Error("hookless algorithm accepted")
	}
	dup := registry.Algorithm{Name: "first-fit", Kind: registry.MinBusy,
		SolveMinBusy: func(ctx context.Context, in job.Instance) (core.Schedule, error) {
			return core.Schedule{}, nil
		}}
	if err := registry.Register(dup); err == nil {
		t.Error("duplicate canonical name accepted")
	}
	aliasClash := dup
	aliasClash.Name = "totally-new"
	aliasClash.Aliases = []string{"firstfit"}
	if err := registry.Register(aliasClash); err == nil {
		t.Error("alias collision within kind accepted")
	}
	nameClash := dup
	nameClash.Name = "naive" // existing alias of naive-per-job in MinBusy
	if err := registry.Register(nameClash); err == nil {
		t.Error("canonical name colliding with same-kind alias accepted")
	}
	wrongHook := registry.Algorithm{Name: "wrong-hook", Kind: registry.Online,
		SolveMinBusy: dup.SolveMinBusy}
	if err := registry.Register(wrongHook); err == nil {
		t.Error("kind/hook mismatch accepted")
	}
}

// TestRegistryKindStrings pins the kind names used in CLI errors.
func TestRegistryKindStrings(t *testing.T) {
	want := map[registry.Kind]string{
		registry.MinBusy:       "min-busy",
		registry.MaxThroughput: "max-throughput",
		registry.MinBusy2D:     "min-busy-2d",
		registry.Online:        "online",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if names := registry.Names(registry.Online); len(names) != 5 {
		t.Errorf("online names = %v, want 5 strategies", names)
	}
}
