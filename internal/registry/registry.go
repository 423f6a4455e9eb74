// Package registry is the central algorithm registry of the library.
// Every MinBusy, MaxThroughput, two-dimensional and online algorithm
// registers here with a name, problem kind, applicable instance classes
// and approximation guarantee. Lookup, For and List replace the
// per-caller algorithm-name switches: the CLIs resolve user input
// through LookupKind, the Solver's auto dispatch walks ForAll in
// strength order, and documentation tables render straight from List.
//
// The registry is populated at init time by builtins.go; Register is
// exported so future subsystems (e.g. a busyd serving layer loading
// plugins) can add algorithms without touching the dispatch code.
package registry

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/online"
)

// Kind is the problem family an algorithm solves.
type Kind int

const (
	// MinBusy schedules every job, minimizing total machine busy time.
	MinBusy Kind = iota
	// MaxThroughput schedules a maximum subset of jobs within a
	// busy-time budget.
	MaxThroughput
	// MinBusy2D is the two-dimensional (Section 3.4) MinBusy variant on
	// time × day rectangles.
	MinBusy2D
	// Online is the arrival-order online MinBusy variant: placements are
	// irrevocable and strategies see only the currently-open machines.
	Online
)

// String names the kind for reports and error messages.
func (k Kind) String() string {
	switch k {
	case MinBusy:
		return "min-busy"
	case MaxThroughput:
		return "max-throughput"
	case MinBusy2D:
		return "min-busy-2d"
	case Online:
		return "online"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Algorithm is one registered solver: identification, the metadata that
// drives dispatch and documentation, and exactly one solve hook matching
// its Kind.
type Algorithm struct {
	// Name is the canonical, globally unique algorithm name, the one
	// auto dispatch reports (e.g. "find-best-consecutive").
	Name string
	// Aliases are alternate names accepted by LookupKind — the short CLI
	// spellings ("consecutive", "ff2d"). Aliases are unique per kind but
	// may repeat across kinds ("naive").
	Aliases []string
	// Kind is the problem family the algorithm solves.
	Kind Kind
	// Classes lists the instance classes the algorithm requires; any one
	// suffices, honoring the class hierarchy (a proper clique instance
	// satisfies a requirement of Proper or of Clique). Empty means the
	// algorithm accepts every instance.
	Classes []igraph.Class
	// Guarantee is the human-readable approximation guarantee.
	Guarantee string
	// Ratio is the machine-checkable counterpart of Guarantee: the proven
	// approximation factor as a function of the machine capacity g. For
	// min-busy kinds it bounds cost ≤ Ratio(g)·OPT; for max-throughput it
	// bounds the scheduled value ≥ OPT/Ratio(g). Exact algorithms return 1.
	// A nil Ratio claims no proven factor (heuristic or empirical-only
	// guarantees) and the conformance harness skips the oracle comparison.
	Ratio func(g int) float64
	// Weighted marks max-throughput algorithms whose objective is total
	// scheduled weight rather than job count; verification compares them
	// against the weighted oracle.
	Weighted bool
	// MinG and MaxG bound the machine capacities the algorithm accepts
	// (0 means unbounded) — the machine-readable form of restrictions
	// like clique-matching's g = 2, so verification can distinguish a
	// legitimate capacity rejection from a regression.
	MinG, MaxG int
	// Exact reports whether the algorithm is optimal on its classes.
	Exact bool
	// Oracle marks exponential-time solvers: reachable by name, but
	// excluded from For/ForAll so auto dispatch stays polynomial.
	Oracle bool
	// Ref cites the paper result the algorithm implements.
	Ref string
	// Strength orders algorithms within a (kind, class) pair; For picks
	// the applicable algorithm with the highest strength. Exact
	// class-specific algorithms rank above approximations, which rank
	// above baselines.
	Strength int

	// Exactly one of the following is non-nil, matching Kind.
	SolveMinBusy    func(ctx context.Context, in job.Instance) (core.Schedule, error)
	SolveThroughput func(ctx context.Context, in job.Instance, budget int64) (core.Schedule, error)
	SolveRect       func(ctx context.Context, in job.RectInstance) (core.RectSchedule, error)
	NewStrategy     func() online.Strategy
}

// AcceptsG reports whether the capacity g falls inside the algorithm's
// declared [MinG, MaxG] range (zero bounds are open).
func (a Algorithm) AcceptsG(g int) bool {
	if a.MinG > 0 && g < a.MinG {
		return false
	}
	if a.MaxG > 0 && g > a.MaxG {
		return false
	}
	return true
}

// AppliesTo reports whether the algorithm accepts instances of the
// detected class.
func (a Algorithm) AppliesTo(detected igraph.Class) bool {
	if len(a.Classes) == 0 {
		return true
	}
	for _, req := range a.Classes {
		if classSatisfies(detected, req) {
			return true
		}
	}
	return false
}

// classSatisfies reports whether an instance detected as class d meets a
// requirement of class req, following the hierarchy of Section 2: every
// proper clique is proper and a clique; every one-sided clique is a
// clique (but not necessarily proper); everything satisfies General.
func classSatisfies(d, req igraph.Class) bool {
	switch req {
	case igraph.General:
		return true
	case igraph.Proper:
		return d == igraph.Proper || d == igraph.ProperClique
	case igraph.Clique:
		return d == igraph.Clique || d == igraph.ProperClique || d == igraph.OneSidedClique
	case igraph.ProperClique:
		return d == igraph.ProperClique
	case igraph.OneSidedClique:
		return d == igraph.OneSidedClique
	default:
		return false
	}
}

var (
	mu     sync.RWMutex
	byName = map[string]Algorithm{}
	all    []Algorithm
	// chains memoizes ForAll per (kind, class): dispatch runs once per
	// solve request, so the serving hot path would otherwise re-sort the
	// registry on every call. Register invalidates it.
	chains = map[chainKey][]Algorithm{}
)

type chainKey struct {
	kind  Kind
	class igraph.Class
}

// Register adds an algorithm to the registry. It errors on an empty or
// duplicate canonical name, a name or alias colliding with an existing
// same-kind entry's name or aliases, or a missing/mismatched solve hook.
func Register(a Algorithm) error {
	if a.Name == "" {
		return fmt.Errorf("registry: algorithm has no name")
	}
	if err := checkHook(a); err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := byName[a.Name]; dup {
		return fmt.Errorf("registry: duplicate algorithm name %q", a.Name)
	}
	for _, existing := range all {
		if existing.Kind != a.Kind {
			continue
		}
		if containsString(existing.Aliases, a.Name) {
			return fmt.Errorf("registry: name %q collides with an alias of %q (kind %s)", a.Name, existing.Name, a.Kind)
		}
		for _, alias := range a.Aliases {
			if alias == existing.Name || containsString(existing.Aliases, alias) {
				return fmt.Errorf("registry: alias %q of %q collides with %q (kind %s)", alias, a.Name, existing.Name, a.Kind)
			}
		}
	}
	byName[a.Name] = a
	all = append(all, a)
	chains = map[chainKey][]Algorithm{}
	return nil
}

// MustRegister is Register for init-time registration of built-ins,
// where a failure is a programmer error.
func MustRegister(a Algorithm) {
	if err := Register(a); err != nil {
		panic(err)
	}
}

func checkHook(a Algorithm) error {
	hooks := 0
	if a.SolveMinBusy != nil {
		hooks++
	}
	if a.SolveThroughput != nil {
		hooks++
	}
	if a.SolveRect != nil {
		hooks++
	}
	if a.NewStrategy != nil {
		hooks++
	}
	if hooks != 1 {
		return fmt.Errorf("registry: algorithm %q must set exactly one solve hook, has %d", a.Name, hooks)
	}
	ok := false
	switch a.Kind {
	case MinBusy:
		ok = a.SolveMinBusy != nil
	case MaxThroughput:
		ok = a.SolveThroughput != nil
	case MinBusy2D:
		ok = a.SolveRect != nil
	case Online:
		ok = a.NewStrategy != nil
	}
	if !ok {
		return fmt.Errorf("registry: algorithm %q solve hook does not match kind %s", a.Name, a.Kind)
	}
	return nil
}

// Lookup resolves a canonical algorithm name across all kinds, falling
// back to aliases when the name is not canonical. An alias shared by
// several kinds ("naive") is ambiguous without a kind; use LookupKind.
func Lookup(name string) (Algorithm, error) {
	mu.RLock()
	defer mu.RUnlock()
	if a, ok := byName[name]; ok {
		return a, nil
	}
	var matches []Algorithm
	for _, a := range all {
		if containsString(a.Aliases, name) {
			matches = append(matches, a)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return Algorithm{}, fmt.Errorf("registry: unknown algorithm %q; available: %s", name, strings.Join(namesLocked(-1), " "))
	default:
		opts := make([]string, len(matches))
		for i, m := range matches {
			opts[i] = fmt.Sprintf("%s (%s)", m.Name, m.Kind)
		}
		return Algorithm{}, fmt.Errorf("registry: alias %q is ambiguous between %s; use a canonical name", name, strings.Join(opts, ", "))
	}
}

// LookupKind resolves a name or alias within one problem kind — the
// entry point the CLIs use, so a bad -algo value reports the full list
// of registered algorithms instead of a hand-maintained usage string.
func LookupKind(kind Kind, name string) (Algorithm, error) {
	mu.RLock()
	defer mu.RUnlock()
	for _, a := range all {
		if a.Kind != kind {
			continue
		}
		if a.Name == name || containsString(a.Aliases, name) {
			return a, nil
		}
	}
	return Algorithm{}, fmt.Errorf("registry: unknown %s algorithm %q; available: %s", kind, name, strings.Join(namesLocked(kind), " "))
}

// For returns the strongest registered algorithm applicable to the
// detected instance class, excluding exponential oracles: the head of
// the ForAll chain, which auto dispatch runs whenever it accepts the
// instance.
func For(kind Kind, class igraph.Class) (Algorithm, error) {
	chain := ForAll(kind, class)
	if len(chain) == 0 {
		return Algorithm{}, fmt.Errorf("registry: no %s algorithm applies to class %s", kind, class)
	}
	return chain[0], nil
}

// ForAll returns every applicable non-oracle algorithm for the detected
// class, strongest first — the fallback chain auto dispatch walks when a
// stronger algorithm rejects an instance (e.g. clique-matching with
// g ≠ 2 falls back to clique-set-cover, then first-fit). The returned
// slice is memoized and shared; callers must treat it as read-only.
func ForAll(kind Kind, class igraph.Class) []Algorithm {
	key := chainKey{kind, class}
	mu.RLock()
	chain, ok := chains[key]
	mu.RUnlock()
	if ok {
		return chain
	}
	mu.Lock()
	defer mu.Unlock()
	if chain, ok := chains[key]; ok {
		return chain
	}
	for _, a := range all {
		if a.Kind == kind && !a.Oracle && a.AppliesTo(class) {
			chain = append(chain, a)
		}
	}
	sort.SliceStable(chain, func(i, j int) bool {
		if chain[i].Strength != chain[j].Strength {
			return chain[i].Strength > chain[j].Strength
		}
		return chain[i].Name < chain[j].Name
	})
	chains[key] = chain
	return chain
}

// List returns every registered algorithm, ordered by kind, then
// strength (strongest first), then name — ready for documentation tables
// and -list output.
func List() []Algorithm {
	mu.RLock()
	defer mu.RUnlock()
	out := append([]Algorithm(nil), all...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Strength != out[j].Strength {
			return out[i].Strength > out[j].Strength
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names returns the sorted canonical names of one kind's algorithms.
func Names(kind Kind) []string {
	mu.RLock()
	defer mu.RUnlock()
	return namesLocked(kind)
}

// namesLocked lists canonical names under mu; kind < 0 means all kinds.
func namesLocked(kind Kind) []string {
	var names []string
	for _, a := range all {
		if kind < 0 || a.Kind == kind {
			names = append(names, a.Name)
		}
	}
	sort.Strings(names)
	return names
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
