package busytime

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/localsearch"
	"repro/internal/online"
	"repro/internal/parallel"
	"repro/internal/registry"
	"repro/internal/reopt"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ProblemKind is the problem family a Request asks the Solver to solve.
type ProblemKind = registry.Kind

// Problem kinds.
const (
	// KindMinBusy schedules every job, minimizing total busy time. It is
	// the zero value, so a Request{Instance: in} asks for MinBusy.
	KindMinBusy = registry.MinBusy
	// KindMaxThroughput schedules a maximum subset within Budget.
	KindMaxThroughput = registry.MaxThroughput
	// KindMinBusy2D solves the Section 3.4 rectangle variant of Rect.
	KindMinBusy2D = registry.MinBusy2D
	// KindOnline replays the instance through an online strategy in
	// arrival order, committing placements irrevocably.
	KindOnline = registry.Online
)

// AlgorithmInfo describes one registered algorithm: name, aliases,
// problem kind, applicable instance classes and approximation guarantee.
type AlgorithmInfo = registry.Algorithm

// Algorithms lists every registered algorithm, ordered by kind then
// strength — the single source of truth behind CLI usage strings and the
// README table.
func Algorithms() []AlgorithmInfo { return registry.List() }

// LookupAlgorithm resolves a canonical algorithm name (or unambiguous
// alias) across all problem kinds.
func LookupAlgorithm(name string) (AlgorithmInfo, error) { return registry.Lookup(name) }

// LookupAlgorithmKind resolves a name or alias within one problem kind.
func LookupAlgorithmKind(kind ProblemKind, name string) (AlgorithmInfo, error) {
	return registry.LookupKind(kind, name)
}

// AlgorithmFor returns the strongest registered polynomial algorithm for
// the detected instance class — the Solver's first choice in auto mode.
func AlgorithmFor(kind ProblemKind, class Class) (AlgorithmInfo, error) {
	return registry.For(kind, class)
}

// AlgorithmNames returns the sorted canonical algorithm names of a kind.
func AlgorithmNames(kind ProblemKind) []string { return registry.Names(kind) }

// Request is one solve call: an instance plus the problem kind and its
// parameters. The zero Kind is KindMinBusy; a non-nil Rect implies
// KindMinBusy2D.
type Request struct {
	// Instance is the 1-D input for KindMinBusy, KindMaxThroughput and
	// KindOnline.
	Instance Instance
	// Rect is the 2-D input for KindMinBusy2D.
	Rect *RectInstance
	// Kind selects the problem family (default KindMinBusy).
	Kind ProblemKind
	// Budget is the busy-time budget for KindMaxThroughput. When zero,
	// the Solver-level WithBudget value applies.
	Budget int64
	// Timeout, when positive, bounds this request's wall-clock solve
	// time: Solve derives a per-request deadline from the caller's ctx,
	// so one slow request in a SolveBatch cannot hold its worker beyond
	// its own budget. Zero means no per-request deadline.
	Timeout time.Duration
	// BaseID names a prior Result (its Result.ID) to warm-start from:
	// the solver keeps the incumbent assignment for jobs shared with the
	// base and repairs locally around the delta, reporting the
	// transition cost. Requires WithReoptimization and KindMinBusy. A
	// base that is unknown (evicted) or incompatible degrades to a
	// normal solve instead of failing — a client cannot know whether its
	// base survived cache eviction.
	BaseID string
	// TransitionBudget, when positive, caps the number of carried-over
	// jobs a warm-started repair may reassign. Zero means unbudgeted.
	TransitionBudget int
}

// EffectiveKind resolves the problem kind the Solver will dispatch on:
// a non-nil Rect promotes the zero Kind to KindMinBusy2D.
func (r Request) EffectiveKind() ProblemKind {
	if r.Rect != nil {
		return KindMinBusy2D
	}
	return r.Kind
}

// Result is a structured solve outcome: the schedule itself plus the
// algorithm that produced it, the detected instance class, cost and
// machine statistics, the Observation 2.1 lower bound with the achieved
// ratio against it, and wall-clock timing.
type Result struct {
	// Schedule is the produced assignment (1-D kinds).
	Schedule Schedule `json:"-"`
	// Rect is the produced 2-D assignment (KindMinBusy2D only).
	Rect *RectSchedule `json:"-"`
	// Algorithm is the canonical name of the algorithm that ran; auto
	// dispatch over disconnected instances reports "components:a+b".
	Algorithm string `json:"algorithm"`
	// Kind echoes the request's problem kind.
	Kind ProblemKind `json:"kind"`
	// Class is the detected class of the input instance.
	Class Class `json:"class"`
	// Cost is the schedule's total busy time (area for 2-D).
	Cost int64 `json:"cost"`
	// Scheduled and N count scheduled jobs and instance size.
	Scheduled int `json:"scheduled"`
	N         int `json:"n"`
	// Machines counts distinct machines used.
	Machines int `json:"machines"`
	// MachinesOpened and PeakOpen are online-run statistics: machines
	// ever opened and the maximum simultaneously open (zero offline).
	MachinesOpened int `json:"machines_opened,omitempty"`
	PeakOpen       int `json:"peak_open,omitempty"`
	// Rejected counts arrivals an online admission-control strategy
	// declined (always zero offline and for non-rejecting strategies).
	Rejected int `json:"rejected,omitempty"`
	// LowerBound is the Observation 2.1 bound max(span, ⌈len/g⌉) (area
	// form for 2-D), and RatioVsBound is Cost/LowerBound — an upper
	// bound on the true approximation ratio.
	LowerBound   int64   `json:"lower_bound"`
	RatioVsBound float64 `json:"ratio_vs_bound"`
	// Budget echoes the effective budget (KindMaxThroughput only).
	Budget int64 `json:"budget,omitempty"`
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration `json:"elapsed"`
	// ID identifies this result in the reoptimization cache; a later
	// Request.BaseID may reference it for a warm-started delta solve.
	// Empty when reoptimization is disabled or the schedule was not
	// cacheable.
	ID string `json:"id,omitempty"`
	// BaseID echoes the cached result a repair actually warm-started
	// from (the requested BaseID, or the nearest cached instance).
	BaseID string `json:"base_id,omitempty"`
	// Transition counts the carried-over jobs a warm-started repair
	// reassigned relative to the base incumbent (zero on hit and miss).
	Transition int `json:"transition,omitempty"`
	// CacheOutcome reports how the reoptimization layer served this
	// request: CacheHit, CacheRepair or CacheMiss. Empty when
	// reoptimization is disabled or the kind bypasses it.
	CacheOutcome string `json:"cache,omitempty"`
	// Err is the per-request failure of a SolveBatch item. Solve reports
	// errors through its second return value and leaves Err nil; in a
	// batch, one malformed or timed-out request must not poison its
	// siblings, so each Result carries its own error instead. A Result
	// with non-nil Err holds no schedule.
	Err error `json:"-"`
	// Trace is the span tree of this solve — phase names, durations and
	// attributes — recorded only when the caller's ctx was trace-enabled
	// (trace.Enable, or any request served by busyd). Nil otherwise.
	Trace *trace.Node `json:"trace,omitempty"`

	// order is the 1-D instance's ByStart order as the solve computed
	// it, so Certificate need not sort again. Certificate uses it only
	// after job.IsByStart confirms it for the schedule's instance.
	order []int
}

// Reoptimization cache outcomes reported in Result.CacheOutcome (and on
// the wire as the X-Busytime-Cache response header).
const (
	// CacheHit: the submitted instance matched a cached canonical form
	// exactly (up to job order, IDs and time translation); the cached
	// assignment was remapped onto the submitted jobs and re-certified
	// against them.
	CacheHit = "hit"
	// CacheRepair: a cached near-identical instance (small symmetric
	// difference of job sets, or an explicit BaseID) seeded a local
	// repair around the delta.
	CacheRepair = "repair"
	// CacheMiss: no usable cached base; the instance was solved from
	// scratch and cached.
	CacheMiss = "miss"
)

// Certificate re-derives the quality claims of the Result from the
// schedule itself and returns the first violation: schedule validity
// (no machine ever exceeds capacity g), agreement of the reported cost
// and throughput with the schedule, the Observation 2.1 cost bounds for
// total schedules, and budget compliance for throughput runs. A nil
// error certifies the Result is internally consistent and feasible.
func (r Result) Certificate() error {
	if r.Rect != nil {
		if err := r.Rect.Validate(); err != nil {
			return err
		}
		if c := r.Rect.Cost(); c != r.Cost {
			return fmt.Errorf("busytime: reported cost %d, schedule costs %d", r.Cost, c)
		}
		if r.Cost < r.LowerBound {
			return fmt.Errorf("busytime: cost %d below lower bound %d", r.Cost, r.LowerBound)
		}
		return nil
	}
	// The carried order is checked, never trusted: a Result built or
	// edited outside the Solver may hold a stale one, or none.
	in := r.Schedule.Instance
	order := r.order
	if !job.IsByStart(in.Jobs, order) {
		order = job.ByStart(in.Jobs)
	}
	if err := r.Schedule.ValidateByStart(order); err != nil {
		return err
	}
	if c := r.Schedule.CostByStart(order); c != r.Cost {
		return fmt.Errorf("busytime: reported cost %d, schedule costs %d", r.Cost, c)
	}
	if got := r.Schedule.Throughput(); got != r.Scheduled {
		return fmt.Errorf("busytime: reported %d scheduled jobs, schedule has %d", r.Scheduled, got)
	}
	if r.Scheduled == len(in.Jobs) && len(in.Jobs) > 0 {
		if lb, length := in.LowerBoundByStart(order), in.TotalLen(); r.Cost < lb || r.Cost > length {
			return fmt.Errorf("busytime: cost %d outside Observation 2.1 bounds [%d, %d]", r.Cost, lb, length)
		}
	}
	if r.Kind == KindMaxThroughput && r.Cost > r.Budget {
		return fmt.Errorf("busytime: cost %d exceeds budget %d", r.Cost, r.Budget)
	}
	if r.Kind == KindOnline {
		// An online replay commits every arrival irrevocably, so the run
		// statistics must be internally consistent: every job is either
		// scheduled or was rejected by admission control, every distinct
		// machine was opened, the peak of simultaneously open machines
		// never exceeds the number ever opened, and a budgeted run never
		// overspends its budget.
		if r.Scheduled+r.Rejected != len(in.Jobs) {
			return fmt.Errorf("busytime: online run scheduled %d and rejected %d of %d jobs", r.Scheduled, r.Rejected, len(in.Jobs))
		}
		if r.Budget > 0 && r.Cost > r.Budget {
			return fmt.Errorf("busytime: online run cost %d exceeds admission budget %d", r.Cost, r.Budget)
		}
		if r.MachinesOpened < r.Machines {
			return fmt.Errorf("busytime: online run reports %d machines opened but %d distinct machines used", r.MachinesOpened, r.Machines)
		}
		if r.PeakOpen > r.MachinesOpened {
			return fmt.Errorf("busytime: online run peak %d exceeds %d machines opened", r.PeakOpen, r.MachinesOpened)
		}
	}
	return nil
}

// ResultOf wraps an existing 1-D schedule in a Result so callers holding
// only a schedule (e.g. one parsed from JSON) can use Certificate and
// the structured statistics without re-running a Solver.
func ResultOf(algorithm string, s Schedule) Result {
	order := job.ByStart(s.Instance.Jobs)
	return resultOf(s, order, igraph.ClassifyByStart(s.Instance.Jobs, order), algorithm, KindMinBusy)
}

// resultOf assembles the Result of a 1-D schedule whose instance has the
// ByStart order order: the schedule's cost, throughput and machines, and
// the instance's Observation 2.1 bound with the ratio against it. Every
// 1-D solve path and ResultOf build their Result here.
func resultOf(sch Schedule, order []int, class Class, algorithm string, kind ProblemKind) Result {
	in := sch.Instance
	res := Result{
		Schedule:   sch,
		Algorithm:  algorithm,
		Kind:       kind,
		Class:      class,
		N:          len(in.Jobs),
		LowerBound: in.LowerBoundByStart(order),
		order:      order,
	}
	// A machine array that does not match the job list (e.g. truncated or
	// padded JSON) cannot be charged for cost or throughput; leave the
	// stats zero so Certificate reports the Validate error.
	if len(sch.Machine) != len(in.Jobs) {
		return res
	}
	res.Cost = sch.CostByStart(order)
	res.Scheduled = sch.Throughput()
	res.Machines = sch.Machines()
	res.RatioVsBound = stats.Ratio(res.Cost, res.LowerBound)
	return res
}

// Solver executes Requests. The zero value auto-dispatches: it walks the
// registry from the strongest algorithm for the detected instance class
// down to the first that accepts the instance. Options pin a named
// algorithm, set a default budget, enable local-search post-optimization,
// route small instances to the exact oracle, solve connected components
// in parallel, or keep a reoptimization cache of prior solves. A Solver's
// configuration is immutable after construction and it is safe for
// concurrent use (the reoptimization cache is internally locked).
type Solver struct {
	algorithm      string
	budget         int64
	localSearch    bool
	searchRounds   int
	exactThreshold int
	parallelism    int
	reopt          *reopt.Cache
}

// SolverOption configures a Solver at construction.
type SolverOption func(*Solver)

// NewSolver builds a Solver from options.
func NewSolver(opts ...SolverOption) *Solver {
	s := &Solver{parallelism: 1}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// WithAlgorithm pins a registered algorithm (canonical name or alias)
// instead of auto dispatch. For KindOnline it names the strategy.
func WithAlgorithm(name string) SolverOption {
	return func(s *Solver) { s.algorithm = name }
}

// WithBudget sets the default busy-time budget applied to
// KindMaxThroughput requests that carry no budget of their own.
func WithBudget(budget int64) SolverOption {
	return func(s *Solver) { s.budget = budget }
}

// WithLocalSearch enables hill-climbing post-optimization of 1-D
// schedules (experiment E15); maxRounds ≤ 0 climbs to a local optimum.
// The reported algorithm name gains a "+local-search" suffix.
func WithLocalSearch(maxRounds int) SolverOption {
	return func(s *Solver) { s.localSearch = true; s.searchRounds = maxRounds }
}

// WithExactThreshold routes auto-dispatched instances with at most n
// jobs to the exponential exact oracle (capped at 18) instead of the
// polynomial algorithms — the configuration experiments use to measure
// optimality gaps inline.
func WithExactThreshold(n int) SolverOption {
	return func(s *Solver) {
		if n > exact.MaxN {
			n = exact.MaxN
		}
		s.exactThreshold = n
	}
}

// WithParallelism solves the connected components of disconnected
// MinBusy instances with up to workers goroutines (0 selects
// GOMAXPROCS). The default is 1: fully sequential and deterministic.
func WithParallelism(workers int) SolverOption {
	return func(s *Solver) { s.parallelism = workers }
}

// WithReoptimization keeps an instance-fingerprint cache of up to
// capacity prior KindMinBusy solves. Submissions whose canonical form
// (jobs sorted to the paper's J1 ≤ … ≤ Jn order, translated to a zero
// origin, IDs dropped) matches a cached instance are served from cache;
// submissions within a small symmetric difference of a cached job set —
// or naming a prior result via Request.BaseID — warm-start from the
// cached assignment and repair locally around the delta. Every served
// schedule is re-certified against the submitted instance, never the
// cached one. Results gain an ID, the cache outcome, and (on repair)
// the transition cost.
func WithReoptimization(capacity int) SolverOption {
	return func(s *Solver) { s.reopt = reopt.NewCache(capacity) }
}

// Solve executes one Request. It is context-cancellable: long exact and
// oracle runs check ctx at safe points, and auto dispatch stops between
// fallback attempts once ctx fires. A positive Request.Timeout
// additionally bounds this call with its own deadline.
func (s *Solver) Solve(ctx context.Context, req Request) (Result, error) {
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}
	return s.solveOne(ctx, req)
}

// SolveBatch executes a batch of Requests over a bounded worker pool and
// returns one Result per Request, order-stable with the input. It
// generalizes WithParallelism beyond disconnected components: the same
// worker count shards whole requests, each solved sequentially on its
// worker (classification runs exactly once per request, and component
// parallelism is disabled inside batch workers so the pool is the only
// source of concurrency).
//
// Errors are per-request: a malformed instance, an algorithm rejection
// or an expired Request.Timeout surfaces in that Result's Err field
// without poisoning the rest of the batch. The call-level error is
// non-nil only when the batch ctx itself fired, in which case every
// not-yet-solved request carries ctx's error and the partial results
// are still returned order-stable.
func (s *Solver) SolveBatch(ctx context.Context, reqs []Request) ([]Result, error) {
	results := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return results, nil
	}
	// The "batch" span parents every per-request "solve" span; workers
	// append children concurrently (the span is internally locked). Its
	// children run in parallel, so their durations may sum past the
	// batch duration — the sum-≤-root invariant holds per solve subtree.
	ctx, bsp := trace.Start(ctx, "batch")
	bsp.SetAttr("size", strconv.Itoa(len(reqs)))
	defer bsp.End()
	// Batch workers solve sequentially: nesting component parallelism
	// inside request parallelism would oversubscribe the pool.
	inner := *s
	inner.parallelism = 1
	// Per-request deadlines are anchored at batch entry, not at worker
	// pickup: a request's Timeout budgets its whole stay in the batch, so
	// one that expired while queued behind slower siblings fails fast
	// instead of occupying a pool slot on a solve it can no longer use.
	now := time.Now()
	deadlines := make([]time.Time, len(reqs))
	for i, req := range reqs {
		if req.Timeout > 0 {
			deadlines[i] = now.Add(req.Timeout)
		}
	}
	parallel.ForEach(len(reqs), s.parallelism, func(i int) {
		req := reqs[i]
		if err := ctx.Err(); err != nil {
			results[i] = Result{Kind: req.EffectiveKind(), Err: err}
			return
		}
		rctx, cancel := ctx, context.CancelFunc(nil)
		if !deadlines[i].IsZero() {
			if !time.Now().Before(deadlines[i]) {
				results[i] = Result{Kind: req.EffectiveKind(), Err: context.DeadlineExceeded}
				return
			}
			rctx, cancel = context.WithDeadline(ctx, deadlines[i])
		}
		res, err := inner.solveOne(rctx, req)
		if cancel != nil {
			cancel()
		}
		if err != nil {
			res = Result{Kind: req.EffectiveKind(), Err: err}
		}
		results[i] = res
	})
	return results, ctx.Err()
}

// solveOne is the shared request path behind Solve and SolveBatch. It
// opens the per-request "solve" span — a no-op on untraced contexts —
// dispatches, times the dispatch into Result.Elapsed, and attaches the
// finished span tree to the Result.
func (s *Solver) solveOne(ctx context.Context, req Request) (Result, error) {
	ctx, sp := trace.Start(ctx, "solve")
	start := time.Now()
	res, err := s.dispatch(ctx, req)
	if err == nil {
		res.Elapsed = time.Since(start)
	}
	if sp != nil {
		if err != nil {
			sp.SetAttr("error", err.Error())
		} else {
			sp.SetAttr("algorithm", res.Algorithm)
			sp.SetAttr("kind", fmt.Sprint(res.Kind))
			sp.SetAttr("class", fmt.Sprint(res.Class))
			sp.SetAttr("n", strconv.Itoa(res.N))
			if res.CacheOutcome != "" {
				sp.SetAttr("cache", res.CacheOutcome)
			}
		}
	}
	sp.End()
	if err == nil {
		res.Trace = sp.Snapshot()
	}
	return res, err
}

// dispatch validates the request, sorts a 1-D instance once into its
// ByStart order, and routes it on the problem kind. Every later pass
// over the whole instance — fingerprint, classification, component
// split, cost, bound and the Result's certificate — reads that order.
func (s *Solver) dispatch(ctx context.Context, req Request) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	kind := req.EffectiveKind()

	if kind == KindMinBusy2D {
		if req.Rect == nil {
			return Result{}, fmt.Errorf("busytime: %s request needs a Rect instance", kind)
		}
		return s.solveRect(ctx, req)
	}

	in := req.Instance
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	if req.TransitionBudget < 0 {
		return Result{}, fmt.Errorf("busytime: transition budget %d, need >= 0", req.TransitionBudget)
	}
	order := job.ByStart(in.Jobs)
	if kind == KindMinBusy && s.reopt != nil {
		return s.solveReopt(ctx, req, order)
	}
	if req.BaseID != "" {
		return Result{}, fmt.Errorf("busytime: Request.BaseID needs WithReoptimization and a %s request", KindMinBusy)
	}
	return s.solve1D(ctx, req, kind, order)
}

// solve1D is the cold (cache-free) 1-D solve path: classify once,
// dispatch on the kind, post-optimize, assemble the Result. The
// instance is already validated, and order is its ByStart order. Each
// phase runs under its own span: "classify" (class detection),
// "placement" (the algorithm itself), "local-search" (when enabled)
// and "bound" (the Result's cost, statistics and Observation 2.1 bound).
func (s *Solver) solve1D(ctx context.Context, req Request, kind ProblemKind, order []int) (Result, error) {
	_, csp := trace.Start(ctx, "classify")
	class := igraph.ClassifyByStart(req.Instance.Jobs, order)
	csp.End()

	pctx, psp := trace.Start(ctx, "placement")
	sch, name, budget, run, err := s.place(pctx, req, kind, class, order)
	if err == nil {
		psp.SetAttr("algorithm", name)
	}
	psp.End()
	if err != nil {
		return Result{}, err
	}

	if s.localSearch && (kind == KindMinBusy || kind == KindMaxThroughput) {
		_, lsp := trace.Start(ctx, "local-search")
		sch = localsearch.Improve(sch, s.searchRounds)
		lsp.End()
		name += "+local-search"
	}

	// Every algorithm returns a schedule of the instance itself, so order
	// is the schedule's order too.
	_, bsp := trace.Start(ctx, "bound")
	res := resultOf(sch, order, class, name, kind)
	res.Budget = budget
	if run != nil {
		res.MachinesOpened, res.PeakOpen, res.Rejected = run.MachinesOpened, run.PeakOpen, run.Rejected
		if run.Rejected > 0 {
			// An admission-control run is only charged for what it
			// admitted, so its Observation 2.1 bound (and the ratio
			// against it) covers the admitted arrivals alone, as the
			// run's tracker kept it: the full-instance bound would push
			// the ratio below 1. A stream of the same arrivals reports
			// the same lower_bound.
			res.LowerBound = run.LowerBound
			res.RatioVsBound = stats.Ratio(res.Cost, res.LowerBound)
		}
	}
	bsp.End()
	return res, nil
}

// place runs the core placement for one 1-D kind. budget is the budget
// the run was bound by (0 when none applied), and run is the online
// run's summary (nil for the offline kinds).
func (s *Solver) place(ctx context.Context, req Request, kind ProblemKind, class Class, order []int) (sch Schedule, name string, budget int64, run *online.Summary, err error) {
	in := req.Instance
	switch kind {
	case KindMinBusy:
		sch, name, err = s.solveMinBusy(ctx, in, class, order)
	case KindMaxThroughput:
		budget = req.Budget
		if budget == 0 {
			budget = s.budget
		}
		if budget < 0 {
			return Schedule{}, "", 0, nil, fmt.Errorf("busytime: %s request needs a non-negative budget, got %d", kind, budget)
		}
		sch, name, err = s.solveThroughput(ctx, in, budget, class)
	case KindOnline:
		// Only the request's own budget reaches admission control: the
		// Solver-level WithBudget default stays a KindMaxThroughput
		// fallback, as its contract documents.
		var r online.Result
		r, name, budget, err = s.solveOnline(ctx, in, req.Budget, class, order)
		sch, run = r.Schedule, &r.Summary
	default:
		return Schedule{}, "", 0, nil, fmt.Errorf("busytime: unsupported problem kind %s", kind)
	}
	if err != nil {
		return Schedule{}, "", 0, nil, err
	}
	return sch, name, budget, run, nil
}

// nearLimit is the symmetric-difference threshold under which a cached
// instance counts as a near-hit worth repairing instead of re-solving:
// an eighth of the submission, at least 2 (so single-job deltas on tiny
// instances still qualify).
func nearLimit(n int) int {
	if l := n / 8; l > 2 {
		return l
	}
	return 2
}

// solveReopt is the reoptimization front of the KindMinBusy path:
// exact canonical hits are served from cache, near-hits and explicit
// BaseID warm starts route through local repair, and misses fall
// through to the cold path and are cached. Every served schedule is
// rebuilt on — and certified against — the submitted instance.
func (s *Solver) solveReopt(ctx context.Context, req Request, order []int) (Result, error) {
	in := req.Instance
	_, fsp := trace.Start(ctx, "reopt.fingerprint")
	canon, perm := reopt.CanonicalByStart(in, order)
	fp := reopt.FingerprintCanon(in.G, canon, s.algorithm)
	fsp.End()

	// Explicit warm start from a named prior result. An exact canonical
	// match is a hit (nothing to repair); otherwise repair from the
	// named base regardless of delta size — the client asked for it.
	if req.BaseID != "" {
		if e, ok := s.reopt.LookupID(req.BaseID); ok {
			if e.Fingerprint == fp {
				if res, err := s.serveCacheHit(e, in, order, perm); err == nil {
					return res, nil
				}
			} else if res, ok := s.serveRepair(ctx, e, in, order, canon, perm, fp, req.TransitionBudget); ok {
				return res, nil
			}
		}
	}

	if e, ok := s.reopt.Lookup(fp); ok {
		if res, err := s.serveCacheHit(e, in, order, perm); err == nil {
			return res, nil
		}
	}

	_, nsp := trace.Start(ctx, "reopt.nearest")
	e, _, near := s.reopt.Nearest(in.G, canon, nearLimit(len(in.Jobs)))
	nsp.End()
	if near {
		if res, ok := s.serveRepair(ctx, e, in, order, canon, perm, fp, req.TransitionBudget); ok {
			return res, nil
		}
	}

	res, err := s.solve1D(ctx, req, KindMinBusy, order)
	if err != nil {
		return res, err
	}
	res.CacheOutcome = CacheMiss
	if asg, aerr := reopt.CanonicalAssignment(res.Schedule, perm); aerr == nil {
		res.ID = s.reopt.Store(reopt.Entry{
			Fingerprint: fp, G: in.G, Jobs: canon, Machine: asg,
			Algorithm: res.Algorithm, Class: res.Class, Cost: res.Cost,
		})
	}
	return res, nil
}

// serveCacheHit remaps a cached assignment onto the submitted instance.
// Cost, bound and certificate are re-derived from the remapped schedule
// and the submitted jobs — the cache only supplies the assignment.
func (s *Solver) serveCacheHit(e reopt.Entry, in Instance, order, perm []int) (Result, error) {
	sch, err := reopt.RemapAssignment(e, in, perm)
	if err != nil {
		return Result{}, err
	}
	res := resultOf(sch, order, e.Class, e.Algorithm, KindMinBusy)
	res.ID = e.ID
	res.CacheOutcome = CacheHit
	return res, nil
}

// serveRepair warm-starts from the entry's incumbent assignment and
// repairs locally around the delta. The repaired schedule is cached
// under the submission's own fingerprint, so an identical resubmission
// upgrades to a hit.
func (s *Solver) serveRepair(ctx context.Context, e reopt.Entry, in Instance, order []int, canon []reopt.CanonJob, perm []int, fp string, transitionBudget int) (Result, bool) {
	rep, err := reopt.Repair(ctx, e, in, canon, perm, transitionBudget)
	if err != nil {
		return Result{}, false
	}
	res := resultOf(rep.Schedule, order, igraph.ClassifyByStart(in.Jobs, order), "reopt-repair", KindMinBusy)
	res.BaseID = e.ID
	res.Transition = rep.Transition
	res.CacheOutcome = CacheRepair
	if asg, aerr := reopt.CanonicalAssignment(rep.Schedule, perm); aerr == nil {
		res.ID = s.reopt.Store(reopt.Entry{
			Fingerprint: fp, G: in.G, Jobs: canon, Machine: asg,
			Algorithm: res.Algorithm, Class: res.Class, Cost: res.Cost,
		})
	}
	return res, true
}

// solveMinBusy runs a pinned algorithm, the exact oracle below the
// threshold, or registry-driven auto dispatch over connected components.
// order is in's ByStart order; the split hands each component its own.
func (s *Solver) solveMinBusy(ctx context.Context, in Instance, class Class, order []int) (Schedule, string, error) {
	if s.algorithm != "" {
		alg, err := registry.LookupKind(registry.MinBusy, s.algorithm)
		if err != nil {
			return Schedule{}, "", err
		}
		sch, err := alg.SolveMinBusy(ctx, in)
		return sch, alg.Name, err
	}
	if s.exactThreshold > 0 && len(in.Jobs) <= s.exactThreshold {
		sch, err := exact.MinBusy(ctx, in)
		return sch, "exact", err
	}

	comps, orders, positions := igraph.SplitComponentsByStart(in, order)
	if len(comps) <= 1 {
		return runMinBusyChain(ctx, in, class)
	}

	// Disconnected instances decompose (Section 2): solve each component
	// independently — in parallel when configured — and merge on disjoint
	// machine ranges.
	type compResult struct {
		sch  Schedule
		name string
		err  error
	}
	results := make([]compResult, len(comps))
	parallel.ForEach(len(comps), s.parallelism, func(i int) {
		sch, name, err := runMinBusyChain(ctx, comps[i], igraph.ClassifyByStart(comps[i].Jobs, orders[i]))
		results[i] = compResult{sch, name, err}
	})

	subs := make([]Schedule, len(comps))
	names := make([]string, len(comps))
	for i, r := range results {
		if r.err != nil {
			return Schedule{}, "", r.err
		}
		subs[i], names[i] = r.sch, r.name
	}
	merged, name := core.MergeComponentsAt(in, positions, subs, names)
	return merged, name, nil
}

// runMinBusyChain walks the registry's fallback chain for the
// component's class, strongest first, and returns the first schedule
// produced: the MinBusy auto dispatch of Sections 3–4, with first-fit as
// the general fallback.
func runMinBusyChain(ctx context.Context, in Instance, class Class) (Schedule, string, error) {
	for _, alg := range registry.ForAll(registry.MinBusy, class) {
		if err := ctx.Err(); err != nil {
			return Schedule{}, "", err
		}
		if sch, err := alg.SolveMinBusy(ctx, in); err == nil {
			return sch, alg.Name, nil
		}
	}
	return Schedule{}, "", fmt.Errorf("busytime: no registered min-busy algorithm accepted the instance (class %s)", class)
}

func (s *Solver) solveThroughput(ctx context.Context, in Instance, budget int64, class Class) (Schedule, string, error) {
	if s.algorithm != "" {
		alg, err := registry.LookupKind(registry.MaxThroughput, s.algorithm)
		if err != nil {
			return Schedule{}, "", err
		}
		sch, err := alg.SolveThroughput(ctx, in, budget)
		return sch, alg.Name, err
	}
	if s.exactThreshold > 0 && len(in.Jobs) <= s.exactThreshold {
		sch, err := exact.MaxThroughput(ctx, in, budget)
		return sch, "exact-throughput", err
	}
	for _, alg := range registry.ForAll(registry.MaxThroughput, class) {
		if err := ctx.Err(); err != nil {
			return Schedule{}, "", err
		}
		if sch, err := alg.SolveThroughput(ctx, in, budget); err == nil {
			return sch, alg.Name, nil
		}
	}
	return Schedule{}, "", fmt.Errorf("busytime: no registered max-throughput algorithm accepted the instance (class %s)", class)
}

// solveOnline replays the instance, in its ByStart order, through the
// pinned strategy, or the strongest registered one for the instance's
// class. A positive budget is handed to strategies that implement
// online.BudgetSetter (the admission-control family); the returned
// budget is that budget when it applied and 0 otherwise, so the Result
// only echoes a budget the run was really bound by. Pinning a budgeted
// strategy WITHOUT a budget is deliberately allowed at this level and
// degenerates to its unbudgeted placement policy (BestFit): the registry
// constructs strategies parameter-free, and the conformance harness,
// E16 and the fuzz targets rely on every registered strategy producing a
// total schedule here. The user-facing surfaces (busyd's /v1/stream,
// busysim online) refuse that combination instead, because there the silent
// degeneration would masquerade as admission control.
func (s *Solver) solveOnline(ctx context.Context, in Instance, budget int64, class Class, order []int) (online.Result, string, int64, error) {
	name := s.algorithm
	if name == "" {
		alg, err := registry.For(registry.Online, class)
		if err != nil {
			return online.Result{}, "", 0, err
		}
		name = alg.Name
	}
	alg, err := registry.LookupKind(registry.Online, name)
	if err != nil {
		return online.Result{}, "", 0, err
	}
	if err := ctx.Err(); err != nil {
		return online.Result{}, "", 0, err
	}
	st := alg.NewStrategy()
	var applied int64
	if budget > 0 {
		bs, ok := st.(online.BudgetSetter)
		if !ok {
			// Dropping the budget silently would let the caller believe
			// admission control ran; refuse, like the serving surfaces do.
			return online.Result{}, "", 0, fmt.Errorf("busytime: online strategy %s does not support a budget (use online-budget)", alg.Name)
		}
		bs.SetBudget(budget)
		applied = budget
	}
	res, err := online.ReplayByStart(in, order, st)
	return res, alg.Name, applied, err
}

func (s *Solver) solveRect(ctx context.Context, req Request) (Result, error) {
	in := *req.Rect
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	var alg registry.Algorithm
	var err error
	if s.algorithm != "" {
		alg, err = registry.LookupKind(registry.MinBusy2D, s.algorithm)
	} else {
		alg, err = registry.For(registry.MinBusy2D, igraph.General)
	}
	if err != nil {
		return Result{}, err
	}
	sch, err := alg.SolveRect(ctx, in)
	if err != nil {
		return Result{}, err
	}
	cost := sch.Cost()
	lb := in.LowerBound()
	return Result{
		Rect:         &sch,
		Algorithm:    alg.Name,
		Kind:         KindMinBusy2D,
		Cost:         cost,
		Scheduled:    len(in.Jobs),
		N:            len(in.Jobs),
		Machines:     sch.Machines(),
		LowerBound:   lb,
		RatioVsBound: stats.Ratio(cost, lb),
	}, nil
}
