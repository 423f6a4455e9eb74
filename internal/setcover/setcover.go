// Package setcover implements greedy weighted set cover with the classical
// H_k guarantee, plus the bounded-size subset enumeration the busy-time
// paper's Lemma 3.2 needs.
//
// Lemma 3.2 solves clique instances of MinBusy by covering the job set with
// subsets of size at most g, where subset Q carries weight
// g·span(Q) − len(Q) (the excess over the parallelism bound, scaled by g to
// stay integral). Greedy set cover on those weights is an H_g-approximation
// for the excess, which combines with the length bound into the paper's
// g·H_g/(H_g+g−1) ratio.
package setcover

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// ctxCheckInterval is how many candidate-set inspections run between
// context checks in the greedy loops and the subset enumeration: frequent
// enough that a cancellation lands within a fraction of a millisecond on
// the multi-million-set instances CliqueSetCover produces, rare enough
// that the atomic load is free.
const ctxCheckInterval = 1 << 14

// Set is a candidate covering set: Elements indexes the universe, Weight is
// its cost. Weights must be non-negative.
type Set struct {
	Elements []int
	Weight   int64
}

// Greedy runs the classical greedy algorithm: repeatedly choose the set
// minimizing weight divided by newly covered elements, until the universe
// {0, …, n−1} is covered. It returns the indices of chosen sets in choice
// order. Greedy returns an error if the union of all sets does not cover
// the universe. The cover cost is within H_k of optimal, where k is the
// largest set size.
//
// The O(n·|sets|) candidate scan checks ctx every ctxCheckInterval
// inspections and returns ctx.Err() once it fires, so a Solver deadline
// can abandon a multi-million-set cover mid-iteration.
func Greedy(ctx context.Context, n int, sets []Set) ([]int, error) {
	covered := make([]bool, n)
	remaining := n
	used := make([]bool, len(sets))
	var chosen []int
	scanned := 0

	for remaining > 0 {
		bestIdx := -1
		var bestW int64
		bestNew := 0
		for i, s := range sets {
			scanned++
			if scanned%ctxCheckInterval == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if used[i] {
				continue
			}
			newCount := 0
			for _, e := range s.Elements {
				if e < 0 || e >= n {
					return nil, fmt.Errorf("setcover: element %d outside universe [0,%d)", e, n)
				}
				if !covered[e] {
					newCount++
				}
			}
			if newCount == 0 {
				continue
			}
			// Compare ratios s.Weight/newCount < bestW/bestNew without
			// division: cross-multiply in int64 (weights are bounded by
			// instance spans, counts by n, so no overflow in practice).
			if bestIdx == -1 || s.Weight*int64(bestNew) < bestW*int64(newCount) {
				bestIdx = i
				bestW = s.Weight
				bestNew = newCount
			}
		}
		if bestIdx == -1 {
			return nil, fmt.Errorf("setcover: %d elements uncoverable", remaining)
		}
		used[bestIdx] = true
		chosen = append(chosen, bestIdx)
		for _, e := range sets[bestIdx].Elements {
			if !covered[e] {
				covered[e] = true
				remaining--
			}
		}
	}
	return chosen, nil
}

// GreedyPartition is Greedy restricted to candidates that are entirely
// uncovered, so the chosen sets are pairwise disjoint and form a partition
// of the covered universe. The busy-time clique algorithm needs this
// variant: its modified-weight accounting (Lemma 3.2) charges each element
// exactly once, which only a partition guarantees. The family must be
// subset-rich enough to always offer a fully-uncovered set (singletons
// suffice); otherwise an error is returned.
//
// It checks ctx on the same schedule as Greedy.
func GreedyPartition(ctx context.Context, n int, sets []Set) ([]int, error) {
	covered := make([]bool, n)
	remaining := n
	used := make([]bool, len(sets))
	var chosen []int
	scanned := 0

	for remaining > 0 {
		bestIdx := -1
		var bestW int64
		bestNew := 0
		for i, s := range sets {
			scanned++
			if scanned%ctxCheckInterval == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if used[i] || len(s.Elements) == 0 {
				continue
			}
			ok := true
			for _, e := range s.Elements {
				if e < 0 || e >= n {
					return nil, fmt.Errorf("setcover: element %d outside universe [0,%d)", e, n)
				}
				if covered[e] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			newCount := len(s.Elements)
			if bestIdx == -1 || s.Weight*int64(bestNew) < bestW*int64(newCount) {
				bestIdx = i
				bestW = s.Weight
				bestNew = newCount
			}
		}
		if bestIdx == -1 {
			return nil, fmt.Errorf("setcover: no fully-uncovered set available with %d elements left", remaining)
		}
		used[bestIdx] = true
		chosen = append(chosen, bestIdx)
		for _, e := range sets[bestIdx].Elements {
			covered[e] = true
			remaining--
		}
	}
	return chosen, nil
}

// CoverCost sums the weights of the chosen sets.
func CoverCost(sets []Set, chosen []int) int64 {
	var total int64
	for _, i := range chosen {
		total += sets[i].Weight
	}
	return total
}

// Partition converts a cover into a partition of the universe: each element
// is assigned to the first chosen set that covers it. The result maps each
// chosen-set position to its assigned elements (some may end up empty, and
// are returned empty rather than dropped, preserving positions).
func Partition(n int, sets []Set, chosen []int) [][]int {
	assigned := make([]int, n)
	for i := range assigned {
		assigned[i] = -1
	}
	out := make([][]int, len(chosen))
	for pos, si := range chosen {
		for _, e := range sets[si].Elements {
			if assigned[e] == -1 {
				assigned[e] = pos
				out[pos] = append(out[pos], e)
			}
		}
	}
	for _, a := range assigned {
		if a == -1 {
			panic("setcover: Partition called with a non-cover")
		}
	}
	for _, elems := range out {
		sort.Ints(elems)
	}
	return out
}

// EnumerateSubsets yields every subset of {0,…,n−1} of size between 1 and
// k, invoking visit with a reused scratch slice (callers must copy if they
// retain it). The number of subsets is Σ_{i=1..k} C(n,i); Count reports it
// so callers can refuse oversized enumerations.
//
// It checks ctx every ctxCheckInterval visited subsets, abandons the
// enumeration once it fires, and returns ctx.Err(); ctx is the only
// error source.
func EnumerateSubsets(ctx context.Context, n, k int, visit func(subset []int)) error {
	scratch := make([]int, 0, k)
	visited := 0
	var rec func(start int) error
	rec = func(start int) error {
		if len(scratch) > 0 {
			visited++
			if visited%ctxCheckInterval == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			visit(scratch)
		}
		if len(scratch) == k {
			return nil
		}
		//lint:ignore busylint/ctxloop rec checks the captured ctx at every visited subset on a stride; the loop only drives the recursion
		for v := start; v < n; v++ {
			scratch = append(scratch, v)
			err := rec(v + 1)
			scratch = scratch[:len(scratch)-1]
			if err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// Count returns Σ_{i=1..k} C(n,i), the number of subsets EnumerateSubsets
// visits, saturating at math.MaxInt64 on overflow.
func Count(n, k int) int64 {
	var total int64
	for i := 1; i <= k && i <= n; i++ {
		c := binom(n, i)
		if c == math.MaxInt64 || total > math.MaxInt64-c {
			return math.MaxInt64
		}
		total += c
	}
	return total
}

// Harmonic returns H_k = Σ_{i=1..k} 1/i.
func Harmonic(k int) float64 {
	h := 0.0
	for i := 1; i <= k; i++ {
		h += 1 / float64(i)
	}
	return h
}

func binom(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c int64 = 1
	for i := 0; i < k; i++ {
		// c = c * (n-i) / (i+1), exact at each step.
		num := int64(n - i)
		if c > math.MaxInt64/num {
			return math.MaxInt64
		}
		c = c * num / int64(i+1)
	}
	return c
}
