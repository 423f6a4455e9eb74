// Package exact provides exponential-time exact solvers for MinBusy and
// MaxThroughput on small instances.
//
// Both solvers run a dynamic program over subsets of jobs: a machine's job
// set is an arbitrary subset of size-compatible jobs, so
//
//	cost*(S) = min over valid Q ⊆ S containing the lowest job of S of
//	           span(Q) + cost*(S \ Q)
//
// which evaluates in O(3^n) time and O(2^n) space. These solvers are the
// ground truth every approximation experiment of busysim experiments measures
// against; they are deliberately capped at MaxN jobs.
package exact

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/job"
)

// MaxN is the largest instance size the exact solvers accept. 3^20 subset
// enumerations is already ~3.5·10⁹; 18 keeps unit tests fast while leaving
// benchmarks room to stress the oracle.
const MaxN = 18

// ctxCheckInterval is how many DP iterations run between context checks:
// frequent enough that cancellation lands within microseconds, rare
// enough that the check is free.
const ctxCheckInterval = 1 << 13

// MinBusy computes an optimal MinBusy schedule by subset DP. It returns an
// error (rather than panicking) for oversized instances so callers can fall
// back to approximations.
//
// The subset DP checks ctx at safe points and returns ctx.Err() once it
// fires, so long oracle runs can be abandoned by a Solver deadline.
func MinBusy(ctx context.Context, in job.Instance) (core.Schedule, error) {
	if err := admit(in); err != nil {
		return core.Schedule{}, err
	}
	_, pick, err := subsetDP(ctx, in)
	if err != nil {
		return core.Schedule{}, err
	}
	return scheduleOf(in, pick, len(pick)-1), nil
}

// MinBusyCost returns only the optimal cost (same DP as MinBusy).
func MinBusyCost(in job.Instance) (int64, error) {
	s, err := MinBusy(context.Background(), in)
	if err != nil {
		return 0, err
	}
	return s.Cost(), nil
}

// MaxThroughput computes an optimal partial schedule of at most budget
// total busy time that maximizes the number of scheduled jobs, breaking
// ties toward lower cost. It runs the MinBusy subset DP once, then scans
// all subsets; both observe ctx as MinBusy does.
func MaxThroughput(ctx context.Context, in job.Instance, budget int64) (core.Schedule, error) {
	return maxThroughput(ctx, in, budget, func(mask int) int64 {
		return int64(bits.OnesCount(uint(mask)))
	})
}

// MaxWeightThroughput is MaxThroughput with job weights (Section 5
// extension): it maximizes total scheduled weight within the budget. It
// observes ctx as MinBusy does.
func MaxWeightThroughput(ctx context.Context, in job.Instance, budget int64) (core.Schedule, error) {
	return maxThroughput(ctx, in, budget, func(mask int) int64 {
		var w int64
		//lint:ignore busylint/ctxloop popcount walk over one ≤ MaxN = 18 bit mask; the caller's mask scan observes ctx
		for m := mask; m != 0; m &= m - 1 {
			w += in.Jobs[bits.TrailingZeros(uint(m))].Weight
		}
		return w
	})
}

func maxThroughput(ctx context.Context, in job.Instance, budget int64, value func(mask int) int64) (core.Schedule, error) {
	if err := admit(in); err != nil {
		return core.Schedule{}, err
	}
	if budget < 0 {
		return core.NewSchedule(in), nil
	}
	cost, pick, err := subsetDP(ctx, in)
	if err != nil {
		return core.Schedule{}, err
	}

	bestMask := 0
	var bestVal int64
	var bestCost int64
	// The winner scan visits all 2^n masks and value() is O(n), so it
	// needs the same strided cancellation point as the DP.
	for mask := range cost {
		if mask%ctxCheckInterval == 0 && ctx.Err() != nil {
			return core.Schedule{}, ctx.Err()
		}
		if cost[mask] > budget {
			continue
		}
		v := value(mask)
		if v > bestVal || (v == bestVal && cost[mask] < bestCost) {
			bestMask, bestVal, bestCost = mask, v, cost[mask]
		}
	}
	return scheduleOf(in, pick, bestMask), nil
}

// admit rejects the instances the oracles refuse: more than MaxN jobs, or
// an invalid instance.
func admit(in job.Instance) error {
	if n := len(in.Jobs); n > MaxN {
		return fmt.Errorf("exact: %d jobs exceeds MaxN = %d", n, MaxN)
	}
	return in.Validate()
}

// subsetDP runs the recurrence of the package comment over every subset
// mask: cost[mask] is the optimal busy time of the jobs in mask and
// pick[mask] the machine (a subset of mask holding its lowest job) an
// optimal schedule of mask gives that job.
func subsetDP(ctx context.Context, in job.Instance) (cost []int64, pick []int, err error) {
	spanOf, validQ, err := subsetTables(ctx, in)
	if err != nil {
		return nil, nil, err
	}
	size := len(spanOf)
	cost = make([]int64, size)
	pick = make([]int, size)
	for mask := 1; mask < size; mask++ {
		if mask%ctxCheckInterval == 0 && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		cost[mask] = math.MaxInt64
		low := mask & -mask
		rest := mask ^ low
		// Enumerate subsets Q of mask containing low: Q = low | sub for
		// every subset sub of rest.
		for sub := rest; ; sub = (sub - 1) & rest {
			q := low | sub
			if validQ[q] {
				c := spanOf[q] + cost[mask^q]
				if c < cost[mask] {
					cost[mask] = c
					pick[mask] = q
				}
			}
			if sub == 0 {
				break
			}
		}
	}
	return cost, pick, nil
}

// scheduleOf assigns the jobs of mask to machines by peeling pick's
// machine subsets off it, one nonempty subset (so at most n ≤ MaxN
// machines) per step; jobs outside mask stay unscheduled.
func scheduleOf(in job.Instance, pick []int, mask int) core.Schedule {
	s := core.NewSchedule(in)
	for machine := 0; mask != 0; machine++ {
		q := pick[mask]
		for m := q; m != 0; m &= m - 1 {
			s.Assign(bits.TrailingZeros(uint(m)), machine)
		}
		mask ^= q
	}
	return s
}

// subsetTables precomputes, for every subset mask, the span of its jobs
// and whether it can run on one capacity-g machine (peak demand ≤ g).
// The jobs' start and end events are sorted once; each mask is then one
// sweep over them that skips the jobs outside it, with no per-mask sort
// or allocation: O(n·2^n) in all, against the DP's O(3^n).
func subsetTables(ctx context.Context, in job.Instance) (spanOf []int64, validQ []bool, err error) {
	size := 1 << len(in.Jobs)
	spanOf = make([]int64, size)
	validQ = make([]bool, size)
	events := eventsOf(in)
	for mask := 1; mask < size; mask++ {
		if mask%ctxCheckInterval == 0 && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		peak, span := interval.Sweep(events, func(i int) bool { return mask>>i&1 != 0 })
		spanOf[mask] = span
		validQ[mask] = peak <= int64(in.G)
	}
	return spanOf, validQ, nil
}

// eventsOf returns the jobs' start and end events in sweep order, each
// job weighted by its demand.
func eventsOf(in job.Instance) []interval.Event {
	demands := make([]int64, len(in.Jobs))
	for i, j := range in.Jobs {
		demands[i] = j.Demand
	}
	return interval.Events(in.Intervals(), demands)
}
