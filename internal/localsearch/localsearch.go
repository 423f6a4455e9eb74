// Package localsearch post-optimizes MinBusy schedules by hill climbing:
// repeatedly move a single job to another (or a fresh) machine when that
// strictly lowers total busy time, until a local optimum.
//
// The paper's algorithms come with worst-case guarantees; local search
// adds no guarantee but consistently tightens constant factors on random
// instances (experiment E15). Moves preserve validity by construction:
// a move is applied only when the target machine stays within capacity.
package localsearch

import "repro/internal/core"

// Improve hill-climbs from the given schedule and returns a locally
// optimal schedule of no greater cost. The input must be valid (moves are
// validity-checked against capacity, but pre-existing overloads are not
// repaired). maxRounds bounds the number of full passes (≤ 0 means no
// bound, which terminates anyway because cost strictly decreases and is a
// non-negative integer).
func Improve(s core.Schedule, maxRounds int) core.Schedule {
	out := s.CompactMachines()
	in := out.Instance
	// Machines are slice-indexed (ids are compact after CompactMachines)
	// so that candidate scans are deterministic — map-range order here
	// would make tie-breaking, and therefore the final local optimum,
	// vary between runs.
	loads := core.NewLoads(out)

	for round := 0; maxRounds <= 0 || round < maxRounds; round++ {
		improved := false
		for pos, from := range out.Machine {
			if from == core.Unscheduled {
				continue
			}
			release := loads.Marginal(from, pos)

			bestTo := -1
			var bestDelta int64 // strictly negative total change required
			for to := 0; to < loads.Machines(); to++ {
				if to == from {
					continue
				}
				delta := loads.Marginal(to, pos) - release
				if delta < 0 && (bestTo == -1 || delta < bestDelta) && loads.Fits(to, pos) {
					bestTo = to
					bestDelta = delta
				}
			}
			// A fresh machine costs the job's full length.
			if delta := in.Jobs[pos].Len() - release; delta < 0 && (bestTo == -1 || delta < bestDelta) {
				bestTo = loads.Open()
			}
			if bestTo == -1 {
				continue
			}
			loads.Remove(from, pos)
			loads.Add(bestTo, pos)
			out.Machine[pos] = bestTo
			improved = true
		}
		if !improved {
			break
		}
	}
	return out.CompactMachines()
}
