package core

import "repro/internal/job"

// SavingToCostRatio converts a saving-maximization approximation ratio to
// a MinBusy cost ratio (Lemma 2.1): a 1/ρ-fraction-of-optimal saving
// yields cost ≤ (1/ρ + (1 − 1/ρ)·g)·OPT. BestCut's analysis goes through
// this conversion with ρ = g/(g−1), giving 2 − 1/g.
func SavingToCostRatio(rho float64, g int) float64 {
	inv := 1 / rho
	return inv + (1-inv)*float64(g)
}

// CostBounds bundles the Observation 2.1 bounds for reporting: any valid
// schedule's cost lies in [max(Span, ParallelismBound), Length].
type CostBounds struct {
	Span             int64
	ParallelismBound int64
	Length           int64
}

// BoundsOf computes the Observation 2.1 bounds of an instance.
func BoundsOf(in job.Instance) CostBounds { return BoundsByStart(in, job.ByStart(in.Jobs)) }

// BoundsByStart is BoundsOf for a caller that holds ByStart(in.Jobs): it
// takes the span from that order and sorts nothing.
func BoundsByStart(in job.Instance, order []int) CostBounds {
	return CostBounds{
		Span:             job.SpanByStart(in.Jobs, order),
		ParallelismBound: in.ParallelismBound(),
		Length:           in.TotalLen(),
	}
}

// Lower returns the best lower bound, max(Span, ParallelismBound).
func (b CostBounds) Lower() int64 {
	if b.Span > b.ParallelismBound {
		return b.Span
	}
	return b.ParallelismBound
}

// Contains reports whether a schedule cost is consistent with the bounds —
// the invariant every test asserts for every schedule produced.
func (b CostBounds) Contains(cost int64) bool {
	return cost >= b.Lower() && cost <= b.Length
}
