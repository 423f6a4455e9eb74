// Package conformance is the registry-driven verification harness of the
// library: for every algorithm self-registered in internal/registry it
// generates seeded random instances restricted to the algorithm's
// declared applicable classes, solves them through the public
// Solver.Solve entry point, and checks a uniform invariant suite:
//
//	(a) Result.Certificate() holds — the schedule is feasible and the
//	    reported statistics agree with it;
//	(b) the cost respects the Observation 2.1 lower bound;
//	(c) on oracle-sized instances the cost (or scheduled value) is within
//	    the registered machine-checkable guarantee Ratio(g) of the
//	    brute-force/exact oracle optimum;
//	(d) metamorphic invariants hold: permuting the job list, translating
//	    all intervals in time, and duplicating every job under doubled
//	    capacity must not break any of the above, must leave the cost of
//	    a deterministic algorithm unchanged under translation, and must
//	    obey the exact-algorithm monotonicity laws (permutation leaves
//	    the optimal cost unchanged; duplication under doubled capacity
//	    never raises the optimal cost, and doubles the optimal
//	    throughput).
//
// Failing instances are minimized by a greedy job-removal shrinker and
// reported as reproducible Go literals (see Violation.Literal), so a
// counterexample found here — or by the FuzzMinBusy/FuzzOnlineReplay
// targets, which feed decoded byte streams through the identical
// CheckInstance suite — can be pasted directly into a regression test.
//
// The harness never names algorithms: it walks registry.List(), so a new
// registration is exercised automatically. Registered algorithms are
// expected to be deterministic and translation-invariant (every paper
// algorithm is: all decisions depend on lengths, overlaps and relative
// order only); an algorithm may reject an instance outside its scope by
// returning an error, which the harness counts as a rejection rather
// than a violation.
package conformance

import (
	"context"
	"errors"
	"fmt"
	"strings"

	busytime "repro"
	"repro/internal/exact"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ratioSlack absorbs float rounding when comparing an integral cost
// against Ratio(g) times an integral optimum.
const ratioSlack = 1e-6

// translationDelta is the time shift applied by the translation
// metamorphic check. Any non-zero value works; a prime keeps shifted
// coordinates visibly distinct in failure reports.
const translationDelta = 1009

// ErrRejected reports that the algorithm declined the instance (e.g.
// clique-matching outside g = 2). Rejections are counted, not treated as
// violations: class-restricted algorithms legitimately refuse instances
// outside their scope.
var ErrRejected = errors.New("conformance: algorithm rejected the instance")

// Config bounds the generated instances. The defaults keep every
// instance — and its doubled duplication variant — within reach of the
// exponential oracles, so the guarantee check always runs.
type Config struct {
	// Seeds is the number of seeded instances per (algorithm, class, g).
	Seeds int
	// N is the number of jobs per generated instance. Keep 2·N ≤
	// exact.MaxN so the duplication variant stays oracle-sized.
	N int
	// Gs is the capacity sweep. It must include 2 so the g = 2-only
	// algorithms are exercised.
	Gs []int
	// MaxTime and MaxLen bound the generated coordinates.
	MaxTime, MaxLen int64
}

// DefaultConfig returns the configuration used by the conformance tests
// and the conformance experiment.
func DefaultConfig() Config {
	return Config{Seeds: 3, N: 6, Gs: []int{2, 3}, MaxTime: 60, MaxLen: 20}
}

// Violation is one shrunk counterexample: the algorithm, the violated
// property, and the minimized instance that still fails.
type Violation struct {
	Algorithm string
	Property  string
	Class     igraph.Class
	G         int
	Seed      int64
	Detail    string
	Instance  *job.Instance
	Rect      *job.RectInstance
}

// Literal renders the failing instance as a Go composite literal that
// reproduces the violation when passed back to CheckInstance (or to the
// algorithm directly).
func (v Violation) Literal() string {
	if v.Rect != nil {
		return RectGoLiteral(*v.Rect)
	}
	if v.Instance != nil {
		return GoLiteral(*v.Instance)
	}
	return ""
}

// String renders the violation with its reproduction literal.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (class %s, g=%d, seed %d): %s\nreproduce with:\n%s",
		v.Algorithm, v.Property, v.Class, v.G, v.Seed, v.Detail, v.Literal())
}

// Outcome summarizes one algorithm's conformance run.
type Outcome struct {
	Algorithm  string
	Kind       registry.Kind
	Ref        string
	Checked    int // instances that passed the full invariant suite
	Rejected   int // instances the algorithm declined
	Violations []Violation
}

// Table renders one row per outcome: algorithm, kind, instances checked
// and rejected, and the number of violations.
func Table(outs []Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"algorithm", "kind", "checked", "rejected", "violations"}}
	for _, o := range outs {
		t.Add(o.Algorithm, o.Kind.String(), o.Checked, o.Rejected, len(o.Violations))
	}
	return t
}

// CheckAll runs the conformance suite for every registered algorithm, in
// registry.List() order. New registrations are picked up automatically.
func CheckAll(ctx context.Context, cfg Config) ([]Outcome, error) {
	var outs []Outcome
	for _, alg := range registry.List() {
		out, err := CheckAlgorithm(ctx, alg, cfg)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// CheckAlgorithm sweeps capacities, the algorithm's declared classes and
// seeds, running the per-instance invariant suite on each generated
// instance and shrinking any failure. The only error it returns is the
// context's, so a canceled run aborts instead of reporting partial
// results as clean.
func CheckAlgorithm(ctx context.Context, alg registry.Algorithm, cfg Config) (Outcome, error) {
	out := Outcome{Algorithm: alg.Name, Kind: alg.Kind, Ref: alg.Ref}
	for _, g := range cfg.Gs {
		if !alg.AcceptsG(g) {
			continue // declared capacity restriction (e.g. g = 2 only)
		}
		for _, class := range classesFor(alg) {
			for seed := int64(0); seed < int64(cfg.Seeds); seed++ {
				if err := ctx.Err(); err != nil {
					return Outcome{}, err
				}
				v, err := checkOne(ctx, alg, cfg, class, g, seed)
				if err != nil {
					return Outcome{}, err
				}
				switch {
				case v == nil:
					out.Checked++
				case v.Property == rejectedMarker:
					out.Rejected++
				default:
					out.Violations = append(out.Violations, *v)
				}
			}
		}
	}
	return out, nil
}

// rejectedMarker distinguishes a rejection from a violation inside
// checkOne's Violation plumbing; it never escapes to callers.
const rejectedMarker = "rejected"

// checkOne generates one instance and runs the invariant suite, shrinking
// on failure. It returns nil when the suite passes.
func checkOne(ctx context.Context, alg registry.Algorithm, cfg Config, class igraph.Class, g int, seed int64) (*Violation, error) {
	if alg.Kind == registry.MinBusy2D {
		rin := GenerateRect(seed, genConfig(cfg, g))
		err := CheckRectInstance(ctx, alg, rin)
		return rectViolation(ctx, alg, rin, class, g, seed, err)
	}

	in := GenerateClass(seed, class, genConfig(cfg, g))
	if alg.Kind == registry.MaxThroughput {
		in = withSeededWeights(in, seed)
	}
	err := CheckInstance(ctx, alg, in)
	switch {
	case err == nil:
		return nil, nil
	case errors.Is(err, ErrRejected):
		return &Violation{Property: rejectedMarker}, nil
	case ctx.Err() != nil:
		return nil, ctx.Err()
	}

	shrunk := Shrink(ctx, in, func(cand job.Instance) bool {
		cerr := CheckInstance(ctx, alg, cand)
		return cerr != nil && !errors.Is(cerr, ErrRejected) && ctx.Err() == nil
	})
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err2 := CheckInstance(ctx, alg, shrunk); err2 != nil && !errors.Is(err2, ErrRejected) && ctx.Err() == nil {
		err = err2 // report the property the minimized instance violates
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	var ve *violationError
	property, detail := "invariant", err.Error()
	if errors.As(err, &ve) {
		property, detail = ve.property, ve.detail
	}
	return &Violation{
		Algorithm: alg.Name, Property: property, Class: class, G: g, Seed: seed,
		Detail: detail, Instance: &shrunk,
	}, nil
}

func rectViolation(ctx context.Context, alg registry.Algorithm, rin job.RectInstance, class igraph.Class, g int, seed int64, err error) (*Violation, error) {
	switch {
	case err == nil:
		return nil, nil
	case errors.Is(err, ErrRejected):
		return &Violation{Property: rejectedMarker}, nil
	case ctx.Err() != nil:
		return nil, ctx.Err()
	}
	shrunk := ShrinkRect(ctx, rin, func(cand job.RectInstance) bool {
		cerr := CheckRectInstance(ctx, alg, cand)
		return cerr != nil && !errors.Is(cerr, ErrRejected) && ctx.Err() == nil
	})
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err2 := CheckRectInstance(ctx, alg, shrunk); err2 != nil && !errors.Is(err2, ErrRejected) && ctx.Err() == nil {
		err = err2
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	var ve *violationError
	property, detail := "invariant", err.Error()
	if errors.As(err, &ve) {
		property, detail = ve.property, ve.detail
	}
	return &Violation{
		Algorithm: alg.Name, Property: property, Class: class, G: g, Seed: seed,
		Detail: detail, Rect: &shrunk,
	}, nil
}

// violationError carries the property name through the error chain so
// outcomes can be grouped by property.
type violationError struct {
	property string
	detail   string
}

func (e *violationError) Error() string { return e.property + ": " + e.detail }

func violationf(property, format string, args ...interface{}) error {
	return &violationError{property: property, detail: fmt.Sprintf(format, args...)}
}

// classesFor expands an algorithm's declared classes into the generator
// sweep: an unrestricted algorithm is exercised on every class family.
func classesFor(alg registry.Algorithm) []igraph.Class {
	if len(alg.Classes) == 0 {
		return []igraph.Class{igraph.General, igraph.Proper, igraph.Clique, igraph.ProperClique, igraph.OneSidedClique}
	}
	return alg.Classes
}

// CheckInstance runs the full per-instance invariant suite for one
// registered algorithm on one 1-D instance — the identical suite behind
// CheckAlgorithm, the conformance experiment, and the fuzz targets. It
// returns nil when every invariant holds, ErrRejected (wrapped) when the
// algorithm declines the instance, the context error when ctx fires, and
// a violation error otherwise.
func CheckInstance(ctx context.Context, alg registry.Algorithm, in job.Instance) error {
	if err := in.Validate(); err != nil {
		return fmt.Errorf("%w: invalid instance: %v", ErrRejected, err)
	}
	switch alg.Kind {
	case registry.MinBusy, registry.Online:
		return checkMinBusyLike(ctx, alg, in)
	case registry.MaxThroughput:
		return checkThroughput(ctx, alg, in)
	default:
		return fmt.Errorf("conformance: CheckInstance does not handle kind %s; use CheckRectInstance", alg.Kind)
	}
}

// solve runs the pinned algorithm through the public Solver entry point
// on a trace-enabled context, so every conformance solve also exercises
// the span subsystem: the tree must exist and its durations must nest.
func solve(ctx context.Context, alg registry.Algorithm, req busytime.Request) (busytime.Result, error) {
	solver := busytime.NewSolver(busytime.WithAlgorithm(alg.Name))
	res, err := solver.Solve(trace.Enable(ctx), req)
	if err != nil {
		if ctx.Err() != nil {
			return busytime.Result{}, ctx.Err()
		}
		return busytime.Result{}, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	if res.Trace == nil {
		return busytime.Result{}, violationf("trace", "traced solve returned no span tree")
	}
	if verr := checkSpanSums(res.Trace); verr != nil {
		return busytime.Result{}, verr
	}
	return res, nil
}

// checkSpanSums enforces the span-duration invariant recursively: a
// span's sequential children cannot account for more time than the span
// itself. Synthesized aggregate nodes (sums over overlapping intervals)
// are exempt by construction and carry the aggregate attribute.
func checkSpanSums(n *trace.Node) error {
	var sum int64
	for _, c := range n.Children {
		if c.Attr("aggregate") == "true" {
			continue
		}
		if err := checkSpanSums(c); err != nil {
			return err
		}
		sum += c.DurationNS
	}
	if sum > n.DurationNS {
		return violationf("trace", "span %s: children sum %dns exceeds the span's own %dns", n.Name, sum, n.DurationNS)
	}
	return nil
}

// rejectionOrViolation classifies a primary-solve failure: an algorithm
// declining an instance that sits inside its declared scope — the class
// it registered for (per AppliesTo) at a capacity it registered for
// (per AcceptsG) — is itself a conformance violation, not a skip;
// otherwise a regression that makes an algorithm error on in-scope
// inputs would silently pass as "rejected". Oracle-flagged algorithms
// are exempt (their exponential size caps are legitimate rejections the
// registry does not model), as is clique-set-cover's subset-count cap,
// which harness-sized instances never reach.
func rejectionOrViolation(alg registry.Algorithm, class igraph.Class, g int, err error) error {
	if !errors.Is(err, ErrRejected) || alg.Oracle {
		return err
	}
	if !alg.AcceptsG(g) || !alg.AppliesTo(class) {
		return err // legitimately out of the declared scope
	}
	return violationf("unexpected-rejection", "algorithm declined an in-scope instance (class %s, g=%d): %v", class, g, err)
}

// checkMinBusyLike verifies a total-schedule kind (offline MinBusy or an
// online replay): certificate, lower bound, oracle guarantee, and the
// three metamorphic transformations.
func checkMinBusyLike(ctx context.Context, alg registry.Algorithm, in job.Instance) error {
	kind := busytime.KindMinBusy
	if alg.Kind == registry.Online {
		kind = busytime.KindOnline
	}
	run := func(in job.Instance) (busytime.Result, error) {
		return solve(ctx, alg, busytime.Request{Instance: in, Kind: kind})
	}

	res, err := run(in)
	if err != nil {
		return rejectionOrViolation(alg, igraph.Classify(in.Jobs), in.G, err)
	}
	if cerr := res.Certificate(); cerr != nil {
		return violationf("certificate", "%v", cerr)
	}
	if res.Scheduled != len(in.Jobs) {
		return violationf("completeness", "scheduled %d of %d jobs", res.Scheduled, len(in.Jobs))
	}
	if res.Cost < in.LowerBound() {
		return violationf("lower-bound", "cost %d below Observation 2.1 bound %d", res.Cost, in.LowerBound())
	}

	// (c) guarantee against the exact oracle on oracle-sized instances.
	if alg.Ratio != nil && len(in.Jobs) > 0 && len(in.Jobs) <= exact.MaxN {
		opt, oerr := exact.MinBusy(ctx, in)
		if oerr != nil {
			return oerr
		}
		bound := alg.Ratio(in.G) * float64(opt.Cost())
		if float64(res.Cost) > bound+ratioSlack {
			return violationf("guarantee", "cost %d exceeds %.4f = Ratio(%d)·OPT (OPT = %d)",
				res.Cost, bound, in.G, opt.Cost())
		}
		if alg.Exact && res.Cost != opt.Cost() {
			return violationf("guarantee", "exact algorithm cost %d != optimum %d", res.Cost, opt.Cost())
		}
	}

	// Online algorithms additionally honor the durable-journal invariant:
	// journal replay ≡ live session ≡ offline replay.
	if alg.Kind == registry.Online {
		if jerr := checkJournalReplay(alg, in, res); jerr != nil {
			return jerr
		}
	}

	// (d) metamorphic invariants. A variant the algorithm rejects (e.g.
	// duplication doubles g out of a g = 2-only algorithm's scope) is
	// skipped, not failed.
	if permRes, perr := run(Permute(in)); perr == nil {
		if cerr := permRes.Certificate(); cerr != nil {
			return violationf("metamorphic-permutation", "certificate after permutation: %v", cerr)
		}
		if (alg.Exact || alg.Kind == registry.Online) && permRes.Cost != res.Cost {
			return violationf("metamorphic-permutation", "cost changed %d -> %d under job permutation", res.Cost, permRes.Cost)
		}
	} else if ctx.Err() != nil {
		return ctx.Err()
	}

	if transRes, terr := run(Translate(in, translationDelta)); terr == nil {
		if cerr := transRes.Certificate(); cerr != nil {
			return violationf("metamorphic-translation", "certificate after translation: %v", cerr)
		}
		if transRes.Cost != res.Cost {
			return violationf("metamorphic-translation", "cost changed %d -> %d under time translation by %d", res.Cost, transRes.Cost, translationDelta)
		}
	} else if ctx.Err() != nil {
		return ctx.Err()
	}

	if dupRes, derr := run(Duplicate(in)); derr == nil {
		if cerr := dupRes.Certificate(); cerr != nil {
			return violationf("metamorphic-duplication", "certificate after duplication under doubled capacity: %v", cerr)
		}
		// Superimposing both copies of an optimal schedule on the same
		// machines is feasible at capacity 2g and costs the same, so the
		// doubled optimum never exceeds the original — an exact algorithm
		// must respect that monotonicity.
		if alg.Exact && dupRes.Cost > res.Cost {
			return violationf("metamorphic-duplication", "duplicated cost %d exceeds original %d (doubling capacity can only help)", dupRes.Cost, res.Cost)
		}
	} else if ctx.Err() != nil {
		return ctx.Err()
	}

	return nil
}

// checkJournalReplay is the durable-streams metamorphic invariant for
// online strategies: journaling the arrival-sorted instance through a
// session must yield a hash chain that verifies (journal.Certify replays
// and re-checks it internally) and a summary cost equal to the solver's
// — journal replay ≡ live session ≡ offline replay.
func checkJournalReplay(alg registry.Algorithm, in job.Instance, res busytime.Result) error {
	if _, budgeted := alg.NewStrategy().(online.BudgetSetter); budgeted {
		// Admission-control strategies journal only with a positive
		// budget; their journaled invariants live in the journal package's
		// own tests.
		return nil
	}
	sorted := in.SortedByStart()
	arrs := make([]journal.Arrival, len(sorted.Jobs))
	for i, j := range sorted.Jobs {
		arrs[i] = journal.ArrivalOf(j)
	}
	_, cert, err := journal.Certify("conformance", journal.OpenParams{G: in.G, Strategy: alg.Name}, arrs)
	if err != nil {
		return violationf("journal-replay", "journaled session failed to certify: %v", err)
	}
	if cert.Summary.Cost != res.Cost {
		return violationf("journal-replay", "journaled session cost %d, solver cost %d", cert.Summary.Cost, res.Cost)
	}
	if cert.Arrivals != len(in.Jobs) {
		return violationf("journal-replay", "journal holds %d arrivals for %d jobs", cert.Arrivals, len(in.Jobs))
	}
	return nil
}

// checkThroughput verifies a budgeted-throughput algorithm across two
// deterministic budgets: half the total length (a binding budget) and the
// full total length (everything fits).
func checkThroughput(ctx context.Context, alg registry.Algorithm, in job.Instance) error {
	for _, budget := range []int64{in.TotalLen() / 2, in.TotalLen()} {
		if err := checkThroughputBudget(ctx, alg, in, budget); err != nil {
			return err
		}
	}
	return nil
}

// value extracts the objective the algorithm optimizes.
func value(alg registry.Algorithm, s busytime.Schedule) int64 {
	if alg.Weighted {
		return s.WeightedThroughput()
	}
	return int64(s.Throughput())
}

func checkThroughputBudget(ctx context.Context, alg registry.Algorithm, in job.Instance, budget int64) error {
	run := func(in job.Instance) (busytime.Result, error) {
		return solve(ctx, alg, busytime.Request{Instance: in, Kind: busytime.KindMaxThroughput, Budget: budget})
	}

	res, err := run(in)
	if err != nil {
		return rejectionOrViolation(alg, igraph.Classify(in.Jobs), in.G, err)
	}
	if cerr := res.Certificate(); cerr != nil {
		return violationf("certificate", "budget %d: %v", budget, cerr)
	}
	got := value(alg, res.Schedule)

	// (c) guarantee: scheduled value within Ratio(g) of the oracle.
	var optVal int64 = -1
	if alg.Ratio != nil && len(in.Jobs) > 0 && len(in.Jobs) <= exact.MaxN {
		opt, oerr := throughputOracle(ctx, alg, in, budget)
		if oerr != nil {
			return oerr
		}
		optVal = value(alg, opt)
		if float64(got)*alg.Ratio(in.G)+ratioSlack < float64(optVal) {
			return violationf("guarantee", "budget %d: value %d below OPT/Ratio(%d) (OPT = %d)", budget, got, in.G, optVal)
		}
		if alg.Exact && got != optVal {
			return violationf("guarantee", "budget %d: exact algorithm value %d != optimum %d", budget, got, optVal)
		}
	}

	// (d) metamorphic invariants.
	if permRes, perr := run(Permute(in)); perr == nil {
		if cerr := permRes.Certificate(); cerr != nil {
			return violationf("metamorphic-permutation", "budget %d: certificate after permutation: %v", budget, cerr)
		}
		if alg.Exact && value(alg, permRes.Schedule) != got {
			return violationf("metamorphic-permutation", "budget %d: value changed %d -> %d under job permutation", budget, got, value(alg, permRes.Schedule))
		}
	} else if ctx.Err() != nil {
		return ctx.Err()
	}

	if transRes, terr := run(Translate(in, translationDelta)); terr == nil {
		if cerr := transRes.Certificate(); cerr != nil {
			return violationf("metamorphic-translation", "budget %d: certificate after translation: %v", budget, cerr)
		}
		if value(alg, transRes.Schedule) != got || transRes.Cost != res.Cost {
			return violationf("metamorphic-translation", "budget %d: (value, cost) changed (%d, %d) -> (%d, %d) under time translation",
				budget, got, res.Cost, value(alg, transRes.Schedule), transRes.Cost)
		}
	} else if ctx.Err() != nil {
		return ctx.Err()
	}

	if dupRes, derr := run(Duplicate(in)); derr == nil {
		if cerr := dupRes.Certificate(); cerr != nil {
			return violationf("metamorphic-duplication", "budget %d: certificate after duplication: %v", budget, cerr)
		}
		// Superimposing both copies of an optimal partial schedule doubles
		// the scheduled value at unchanged cost, so the doubled optimum is
		// at least twice the original — an exact algorithm must match it.
		if alg.Exact && value(alg, dupRes.Schedule) < 2*got {
			return violationf("metamorphic-duplication", "budget %d: duplicated value %d below 2× original %d", budget, value(alg, dupRes.Schedule), 2*got)
		}
	} else if ctx.Err() != nil {
		return ctx.Err()
	}

	return nil
}

// throughputOracle picks the oracle matching the algorithm's objective.
func throughputOracle(ctx context.Context, alg registry.Algorithm, in job.Instance, budget int64) (busytime.Schedule, error) {
	if alg.Weighted {
		return exact.MaxWeightThroughput(ctx, in, budget)
	}
	return exact.MaxThroughput(ctx, in, budget)
}

// CheckRectInstance is the 2-D counterpart of CheckInstance: certificate,
// lower bound, the exact rectangle-assignment oracle guarantee on
// oracle-sized instances (n ≤ exact.MaxRectN), and the metamorphic
// transformations.
func CheckRectInstance(ctx context.Context, alg registry.Algorithm, in job.RectInstance) error {
	if alg.Kind != registry.MinBusy2D {
		return fmt.Errorf("conformance: CheckRectInstance needs a %s algorithm, got %s", registry.MinBusy2D, alg.Kind)
	}
	if err := in.Validate(); err != nil {
		return fmt.Errorf("%w: invalid instance: %v", ErrRejected, err)
	}
	run := func(in job.RectInstance) (busytime.Result, error) {
		return solve(ctx, alg, busytime.Request{Rect: &in})
	}

	res, err := run(in)
	if err != nil {
		// 2-D instances carry no class structure; General stands in.
		return rejectionOrViolation(alg, igraph.General, in.G, err)
	}
	if cerr := res.Certificate(); cerr != nil {
		return violationf("certificate", "%v", cerr)
	}
	if res.Cost < in.LowerBound() {
		return violationf("lower-bound", "cost %d below 2-D Observation 2.1 bound %d", res.Cost, in.LowerBound())
	}

	// (c) guarantee against the exact rectangle oracle on oracle-sized
	// instances: no algorithm may beat the optimum, exact algorithms must
	// match it, and a registered Ratio(g) bounds the gap.
	if len(in.Jobs) > 0 && len(in.Jobs) <= exact.MaxRectN {
		opt, oerr := exact.MinBusyRect(ctx, in)
		if oerr != nil {
			return oerr
		}
		optCost := opt.Cost()
		if res.Cost < optCost {
			return violationf("guarantee", "cost %d beats the exact 2-D optimum %d (infeasible schedule or oracle bug)", res.Cost, optCost)
		}
		if alg.Exact && res.Cost != optCost {
			return violationf("guarantee", "exact algorithm cost %d != 2-D optimum %d", res.Cost, optCost)
		}
		if alg.Ratio != nil {
			bound := alg.Ratio(in.G) * float64(optCost)
			if float64(res.Cost) > bound+ratioSlack {
				return violationf("guarantee", "cost %d exceeds %.4f = Ratio(%d)·OPT (2-D OPT = %d)", res.Cost, bound, in.G, optCost)
			}
		}
	}

	if permRes, perr := run(PermuteRect(in)); perr == nil {
		if cerr := permRes.Certificate(); cerr != nil {
			return violationf("metamorphic-permutation", "certificate after permutation: %v", cerr)
		}
	} else if ctx.Err() != nil {
		return ctx.Err()
	}

	if transRes, terr := run(TranslateRect(in, translationDelta)); terr == nil {
		if cerr := transRes.Certificate(); cerr != nil {
			return violationf("metamorphic-translation", "certificate after translation: %v", cerr)
		}
		if transRes.Cost != res.Cost {
			return violationf("metamorphic-translation", "cost changed %d -> %d under translation by %d", res.Cost, transRes.Cost, translationDelta)
		}
	} else if ctx.Err() != nil {
		return ctx.Err()
	}

	if dupRes, derr := run(DuplicateRect(in)); derr == nil {
		if cerr := dupRes.Certificate(); cerr != nil {
			return violationf("metamorphic-duplication", "certificate after duplication under doubled capacity: %v", cerr)
		}
	} else if ctx.Err() != nil {
		return ctx.Err()
	}

	return nil
}

// GoLiteral renders an instance as a self-contained Go composite literal
// (package-qualified with job and interval), ready to paste into a
// regression test.
func GoLiteral(in job.Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "job.Instance{G: %d, Jobs: []job.Job{", in.G)
	for _, j := range in.Jobs {
		fmt.Fprintf(&b, "\n\t{ID: %d, Interval: interval.New(%d, %d), Weight: %d, Demand: %d},",
			j.ID, j.Start(), j.End(), j.Weight, j.Demand)
	}
	b.WriteString("\n}}")
	return b.String()
}

// RectGoLiteral renders a 2-D instance as a Go composite literal.
func RectGoLiteral(in job.RectInstance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "job.RectInstance{G: %d, Jobs: []job.RectJob{", in.G)
	for _, j := range in.Jobs {
		fmt.Fprintf(&b, "\n\tjob.NewRectJob(%d, %d, %d, %d, %d),",
			j.ID, j.Rect.D1.Start, j.Rect.D1.End, j.Rect.D2.Start, j.Rect.D2.End)
	}
	b.WriteString("\n}}")
	return b.String()
}
