// Package dvs explores the Dynamic Voltage Scaling tradeoff sketched as
// future work in Section 5: running machines at speed σ ≥ 1 shortens each
// job's occupancy to len/σ but raises power draw to σ^α (α ≈ 2–3 for CMOS,
// following the classical speed-scaling model of Yao, Demers and Shenker).
//
// Jobs keep their release point (start time) and shrink toward it: at
// speed σ, job [s, s+p) occupies [s, s+⌈p/σ⌉). Busy time is measured on
// the rescheduled instance, and energy = busy · σ^α. The package provides
// the sweep and a ternary search for the energy-minimizing speed, which
// exists because busy time is non-increasing and power strictly convex in
// σ — the "wise tradeoff" the paper asks about.
package dvs

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/job"
)

// ScaleInstance returns the instance as seen at speed sigma ≥ 1: each job
// occupies [s, s+ceil(len/sigma)). Job identity, weights and demands are
// preserved.
func ScaleInstance(in job.Instance, sigma float64) (job.Instance, error) {
	if sigma < 1 {
		return job.Instance{}, fmt.Errorf("dvs: speed %v < 1", sigma)
	}
	out := in.Clone()
	for i := range out.Jobs {
		p := float64(out.Jobs[i].Len())
		scaled := int64(math.Ceil(p / sigma))
		if scaled < 1 {
			scaled = 1
		}
		out.Jobs[i].Interval.End = out.Jobs[i].Interval.Start + scaled
	}
	return out, nil
}

// Point is one sweep sample: the busy time of the rescheduled instance at
// the given speed and the resulting energy busy·σ^α.
type Point struct {
	Sigma  float64
	Busy   int64
	Energy float64
}

// Sweep evaluates the busy time and energy across the given speeds using
// the solve callback (typically a Solver's auto dispatch, as in
// examples/energy).
func Sweep(in job.Instance, alpha float64, sigmas []float64, solve func(job.Instance) core.Schedule) ([]Point, error) {
	pts := make([]Point, 0, len(sigmas))
	for _, sigma := range sigmas {
		scaled, err := ScaleInstance(in, sigma)
		if err != nil {
			return nil, err
		}
		busy := solve(scaled).Cost()
		pts = append(pts, Point{
			Sigma:  sigma,
			Busy:   busy,
			Energy: float64(busy) * math.Pow(sigma, alpha),
		})
	}
	return pts, nil
}

// BestSpeed ternary-searches [1, maxSigma] for the speed minimizing
// energy. The energy curve is unimodal when busy time decreases smoothly;
// with integer rounding plateaus the search still returns a point within
// tol of a local optimum, which the tests cross-check against a fine
// sweep.
func BestSpeed(in job.Instance, alpha, maxSigma, tol float64, solve func(job.Instance) core.Schedule) (Point, error) {
	if maxSigma < 1 {
		return Point{}, fmt.Errorf("dvs: maxSigma %v < 1", maxSigma)
	}
	eval := func(sigma float64) (Point, error) {
		pts, err := Sweep(in, alpha, []float64{sigma}, solve)
		if err != nil {
			return Point{}, err
		}
		return pts[0], nil
	}
	lo, hi := 1.0, maxSigma
	for hi-lo > tol {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		p1, err := eval(m1)
		if err != nil {
			return Point{}, err
		}
		p2, err := eval(m2)
		if err != nil {
			return Point{}, err
		}
		if p1.Energy <= p2.Energy {
			hi = m2
		} else {
			lo = m1
		}
	}
	// Integer rounding creates plateaus that can strand the search a hair
	// above a cliff; the endpoints are the common culprits, so take the
	// best of the interior candidate and both endpoints.
	best, err := eval((lo + hi) / 2)
	if err != nil {
		return Point{}, err
	}
	for _, sigma := range []float64{1, maxSigma} {
		p, err := eval(sigma)
		if err != nil {
			return Point{}, err
		}
		if p.Energy < best.Energy {
			best = p
		}
	}
	return best, nil
}
