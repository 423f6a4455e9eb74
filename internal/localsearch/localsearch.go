// Package localsearch post-optimizes MinBusy schedules by hill climbing:
// repeatedly move a single job to another (or a fresh) machine when that
// strictly lowers total busy time, until a local optimum.
//
// The paper's algorithms come with worst-case guarantees; local search
// adds no guarantee but consistently tightens constant factors on random
// instances (experiment E15). Moves preserve validity by construction:
// a move is applied only when the target machine stays within capacity.
package localsearch

import (
	"repro/internal/core"
	"repro/internal/interval"
)

// Improve hill-climbs from the given schedule and returns a locally
// optimal schedule of no greater cost. The input must be valid (moves are
// validity-checked against capacity, but pre-existing overloads are not
// repaired). maxRounds bounds the number of full passes (≤ 0 means no
// bound, which terminates anyway because cost strictly decreases and is a
// non-negative integer).
func Improve(s core.Schedule, maxRounds int) core.Schedule {
	out := s.CompactMachines()
	in := out.Instance
	n := len(in.Jobs)
	if n == 0 {
		return out
	}

	// Machine state is slice-indexed (ids are compact after
	// CompactMachines) so that candidate scans are deterministic —
	// map-range order here would make tie-breaking, and therefore the
	// final local optimum, vary between runs.
	nextMachine := 0
	for _, m := range out.Machine {
		if m != core.Unscheduled && m >= nextMachine {
			nextMachine = m + 1
		}
	}
	machineIvs := make([][]interval.Interval, nextMachine, nextMachine+8)
	machineDem := make([][]int64, nextMachine, nextMachine+8)
	machinePos := make([][]int, nextMachine, nextMachine+8)
	for i, m := range out.Machine {
		if m == core.Unscheduled {
			continue
		}
		machineIvs[m] = append(machineIvs[m], in.Jobs[i].Interval)
		machineDem[m] = append(machineDem[m], in.Jobs[i].Demand)
		machinePos[m] = append(machinePos[m], i)
	}

	spanOf := func(m int) int64 { return interval.Span(machineIvs[m]) }

	remove := func(m, pos int) {
		idx := -1
		for k, p := range machinePos[m] {
			if p == pos {
				idx = k
				break
			}
		}
		machineIvs[m] = append(machineIvs[m][:idx], machineIvs[m][idx+1:]...)
		machineDem[m] = append(machineDem[m][:idx], machineDem[m][idx+1:]...)
		machinePos[m] = append(machinePos[m][:idx], machinePos[m][idx+1:]...)
	}
	add := func(m, pos int) {
		machineIvs[m] = append(machineIvs[m], in.Jobs[pos].Interval)
		machineDem[m] = append(machineDem[m], in.Jobs[pos].Demand)
		machinePos[m] = append(machinePos[m], pos)
	}
	fits := func(m, pos int) bool {
		ivs := append(append([]interval.Interval{}, machineIvs[m]...), in.Jobs[pos].Interval)
		dems := append(append([]int64{}, machineDem[m]...), in.Jobs[pos].Demand)
		return interval.WeightedMaxConcurrency(ivs, dems) <= int64(in.G)
	}

	for round := 0; maxRounds <= 0 || round < maxRounds; round++ {
		improved := false
		for pos := 0; pos < n; pos++ {
			from := out.Machine[pos]
			if from == core.Unscheduled {
				continue
			}
			oldFrom := spanOf(from)
			remove(from, pos)
			newFrom := spanOf(from)
			release := oldFrom - newFrom

			bestTo := -1
			var bestDelta int64 // strictly negative total change required
			for to := 0; to < nextMachine; to++ {
				if to == from || !fits(to, pos) {
					continue
				}
				oldTo := spanOf(to)
				add(to, pos)
				delta := (spanOf(to) - oldTo) - release
				remove(to, pos)
				if delta < 0 && (bestTo == -1 || delta < bestDelta) {
					bestTo = to
					bestDelta = delta
				}
			}
			// A fresh machine costs the job's full length.
			if delta := in.Jobs[pos].Len() - release; delta < 0 && (bestTo == -1 || delta < bestDelta) {
				bestTo = nextMachine
				bestDelta = delta
			}

			if bestTo == -1 {
				add(from, pos) // undo
				continue
			}
			if bestTo == nextMachine {
				machineIvs = append(machineIvs, nil)
				machineDem = append(machineDem, nil)
				machinePos = append(machinePos, nil)
				nextMachine++
			}
			add(bestTo, pos)
			out.Machine[pos] = bestTo
			improved = true
		}
		if !improved {
			break
		}
	}
	return out.CompactMachines()
}
