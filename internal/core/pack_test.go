package core

import (
	"slices"
	"testing"

	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/workload"
)

// greedyThroughputReference is GreedyThroughput with its own thread
// lists: it deep-copies every machine's threads before each job and
// restores the copy when the placement overruns the budget, and it prices
// a placement by the span of the whole machine. It is the oracle the
// shared packer's Undo and the clipped Loads probe are checked against.
func greedyThroughputReference(in job.Instance, budget int64) Schedule {
	s := NewSchedule(in)
	if budget <= 0 {
		return s
	}
	order := byLenDescOrder(in.Jobs)
	reverseInts(order) // shortest first

	var machines [][][]int // machines[m][t] = job positions on thread t
	var cost int64
	machineIvs := map[int][]interval.Interval{}
	fits := func(th []int, p int) bool {
		for _, q := range th {
			if in.Jobs[q].Overlaps(in.Jobs[p]) {
				return false
			}
		}
		return true
	}
	place := func(p int) int {
		for m := 0; m < len(machines); m++ {
			for t := 0; t < len(machines[m]); t++ {
				if fits(machines[m][t], p) {
					machines[m][t] = append(machines[m][t], p)
					return m
				}
			}
			if len(machines[m]) < in.G {
				machines[m] = append(machines[m], []int{p})
				return m
			}
		}
		machines = append(machines, [][]int{{p}})
		return len(machines) - 1
	}
	for _, p := range order {
		saved := make([][][]int, len(machines))
		for m := range machines {
			saved[m] = make([][]int, len(machines[m]))
			for t := range machines[m] {
				saved[m][t] = append([]int(nil), machines[m][t]...)
			}
		}
		m := place(p)
		newIvs := append(machineIvs[m], in.Jobs[p].Interval)
		oldSpan := interval.Span(machineIvs[m])
		newSpan := interval.Span(newIvs)
		if cost-oldSpan+newSpan > budget {
			machines = saved
			continue
		}
		cost += newSpan - oldSpan
		machineIvs[m] = newIvs
		s.Assign(p, m)
	}
	return s
}

// GreedyThroughput must give every job the machine the reference gives
// it, at every budget from nothing to more than the instance can use.
func TestGreedyThroughputMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		g := 1 + int(seed%4)
		in := workload.General(seed, workload.Config{N: 5 + int(seed%60), G: g, MaxTime: 200, MaxLen: 60})
		for _, budget := range []int64{0, 1, 10, 40, 150, 600, 1 << 40} {
			want := greedyThroughputReference(in, budget).Machine
			if got := GreedyThroughput(in, budget).Machine; !slices.Equal(got, want) {
				t.Fatalf("seed %d, budget %d: machines %v, reference %v", seed, budget, got, want)
			}
		}
	}
}
