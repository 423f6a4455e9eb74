package online

import (
	"math/bits"

	"repro/internal/job"
	"repro/internal/safemath"
)

// Naive returns the per-job baseline: every arrival opens its own machine.
// Its cost is exactly len(J), so by Observation 2.1 it is g-competitive —
// the online analogue of the Proposition 2.1 NaivePerJob baseline.
func Naive() Strategy { return naive{} }

type naive struct{}

func (naive) Name() string { return "online-naive" }

func (naive) Pick(open []*Machine, j job.Job) (int, int64) { return -1, 0 }

// FirstFit returns the online FirstFit strategy: each arriving job goes to
// the lowest-numbered open machine it fits on, else a fresh machine. It is
// the arrival-order counterpart of core.FirstFit, and its fit checks ride
// the machines' interval treaps. On adversarial streams it pays
// Ω(g)·OPT (see workload.AdversarialFirstFit), but on stochastic arrivals
// it tracks the offline cost closely.
func FirstFit() Strategy { return firstFit{} }

type firstFit struct{}

func (firstFit) Name() string { return "online-firstfit" }

func (firstFit) Pick(open []*Machine, j job.Job) (int, int64) {
	for i, m := range open {
		if m.Fits(j.Interval) {
			return i, 0
		}
	}
	return -1, 0
}

// Buckets returns the doubling-bucket strategy: jobs are classified by
// ⌈log₂ len⌉ and FirstFit runs separately inside each class, so a machine
// only ever mixes jobs whose lengths are within a factor of two. This is
// the geometric-rounding idea behind the Albers–van der Heijden
// bucket algorithms (and the paper's own BucketFirstFit in 2-D): grouping
// near-equal lengths bounds how much a long job can stretch a machine
// opened for short ones, at the price of more open machines.
func Buckets() Strategy { return buckets{} }

type buckets struct{}

func (buckets) Name() string { return "online-buckets" }

func (buckets) Pick(open []*Machine, j job.Job) (int, int64) {
	class := lenClass(j.Len())
	for i, m := range open {
		if m.Tag() == class && m.Fits(j.Interval) {
			return i, 0
		}
	}
	return -1, class
}

// lenClass returns ⌈log₂ l⌉, the doubling bucket of a length l >= 1.
func lenClass(l int64) int64 {
	//lint:ignore busylint/coordarith l >= 1 is a Validate precondition, so l-1 cannot underflow
	return int64(bits.Len64(uint64(l - 1)))
}

// BestFit returns the online BestFit strategy: each arriving job goes to
// the open machine where it adds the least busy time (the smallest growth
// of the machine's busy period), ties broken toward the lowest-numbered
// machine, opening a fresh machine only when no open one fits. Where
// FirstFit commits to opening order, BestFit prices every candidate by
// marginal cost — the packing analogue of classical best-fit bin packing.
// A placement fully inside an already-paid-for busy period is free and
// always wins.
func BestFit() Strategy { return bestFit{} }

type bestFit struct{}

func (bestFit) Name() string { return "online-bestfit" }

func (bestFit) Pick(open []*Machine, j job.Job) (int, int64) {
	idx, _ := cheapestFit(open, j)
	return idx, 0
}

// cheapestFit returns the index of the fitting open machine with minimal
// marginal busy time (ties to the lowest index) and that cost, or
// (OpenMachine, j.Len()) when no open machine fits.
func cheapestFit(open []*Machine, j job.Job) (int, int64) {
	best, bestCost := OpenMachine, j.Len()
	for i, m := range open {
		if !m.Fits(j.Interval) {
			continue
		}
		if c := m.MarginalCost(j.Interval); best == OpenMachine || c < bestCost {
			best, bestCost = i, c
		}
	}
	return best, bestCost
}

// Budgeted returns the weighted admission-control strategy for arrivals
// carrying throughput weights: placements follow BestFit, but an arrival
// is admitted only while the session's busy-time budget can sustain it.
// A job of weight w whose cheapest placement would add marginal busy time
// c is rejected when c exceeds the job's share of the remaining budget —
// that is, when the marginal busy time per unit of the job's weight,
// c / w, exceeds the remaining budget per unit of then-admitted weight,
// B / (W + w) (B the remaining budget, W the weight admitted so far).
// Heavier arrivals may claim proportionally more of what is left, the
// test tightens as the budget drains relative to admitted weight, and
// c ≤ B·w/(W+w) ≤ B guarantees the budget is never overspent. With no
// budget (SetBudget(0) or never set) nothing is rejected and the
// strategy degenerates to BestFit.
//
// A Budgeted strategy is stateful (it tracks spend across Pick calls):
// use a fresh value per replay or session, never share one across runs.
func Budgeted(budget int64) BudgetSetter {
	b := &budgeted{}
	b.SetBudget(budget)
	return b
}

type budgeted struct {
	limited        bool
	remaining      int64
	admittedWeight int64
}

func (b *budgeted) Name() string { return "online-budget" }

// SetBudget installs the busy-time budget; <= 0 means unlimited. It
// resets the admission state, so it must be called before the first
// arrival, not mid-stream.
func (b *budgeted) SetBudget(budget int64) {
	b.limited = budget > 0
	b.remaining = budget
	b.admittedWeight = 0
}

func (b *budgeted) Pick(open []*Machine, j job.Job) (int, int64) {
	idx, cost := cheapestFit(open, j)
	w := j.Weight
	if w < 1 {
		w = 1
	}
	if b.limited {
		// Admit iff c·(W+w) ≤ B·w, compared exactly in 128 bits: at the
		// wire caps (lengths and weights up to 2^40) the products can
		// pass 2^53, where a float64 comparison could round in the
		// admitting direction and break the never-overspends guarantee.
		if safemath.Mul128Greater(cost, safemath.SatAdd(b.admittedWeight, w), b.remaining, w) {
			return RejectJob, 0
		}
		b.remaining = safemath.SatSub(b.remaining, cost)
	}
	// Clamping the admitted-weight total at MaxInt64 only tightens the
	// admission test, so saturation errs toward rejection, never wrap.
	b.admittedWeight = safemath.SatAdd(b.admittedWeight, w)
	return idx, 0
}
