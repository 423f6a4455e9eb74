package localsearch

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/exact"
	"repro/internal/interval"
	"repro/internal/workload"
)

func TestImproveNeverWorsens(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		in := workload.General(seed, workload.Config{N: 20, G: 3, MaxTime: 120, MaxLen: 40})
		base := core.FirstFit(in)
		improved := Improve(base, 0)
		if err := improved.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if improved.Cost() > base.Cost() {
			t.Errorf("seed %d: local search worsened %d -> %d", seed, base.Cost(), improved.Cost())
		}
		if improved.Throughput() != base.Throughput() {
			t.Errorf("seed %d: job count changed", seed)
		}
	}
}

func TestImproveFixesBadSchedule(t *testing.T) {
	// Start from the naive per-job schedule: local search must find the
	// pairing savings.
	in := workload.Clique(4, workload.Config{N: 10, G: 2, MaxTime: 100, MaxLen: 40})
	naive := core.NaivePerJob(in)
	improved := Improve(naive, 0)
	if improved.Cost() >= naive.Cost() {
		t.Errorf("no improvement from naive: %d vs %d", improved.Cost(), naive.Cost())
	}
}

func TestImproveRespectsOptimal(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		in := workload.General(seed, workload.Config{N: 10, G: 2, MaxTime: 60, MaxLen: 20})
		opt, err := exact.MinBusyCost(in)
		if err != nil {
			t.Fatal(err)
		}
		improved := Improve(core.FirstFit(in), 0)
		if improved.Cost() < opt {
			t.Fatalf("seed %d: local search beat the oracle: %d < %d", seed, improved.Cost(), opt)
		}
	}
}

func TestImproveMaxRounds(t *testing.T) {
	in := workload.Clique(1, workload.Config{N: 12, G: 2, MaxTime: 100, MaxLen: 40})
	one := Improve(core.NaivePerJob(in), 1)
	full := Improve(core.NaivePerJob(in), 0)
	if full.Cost() > one.Cost() {
		t.Errorf("more rounds worsened cost: %d > %d", full.Cost(), one.Cost())
	}
}

func TestImprovePreservesDemandValidity(t *testing.T) {
	base := workload.General(7, workload.Config{N: 15, G: 4, MaxTime: 100, MaxLen: 30})
	in := workload.WithDemands(8, base, 3)
	s := demand.FirstFit(in) // demand-aware starting point
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	improved := Improve(s, 0)
	if err := improved.Validate(); err != nil {
		t.Fatal(err)
	}
	if improved.Cost() > s.Cost() {
		t.Errorf("worsened: %d > %d", improved.Cost(), s.Cost())
	}
}

func TestImproveEmpty(t *testing.T) {
	in := workload.General(1, workload.Config{N: 0, G: 1, MaxTime: 10, MaxLen: 5})
	s := core.NewSchedule(in)
	if got := Improve(s, 0); got.Cost() != 0 {
		t.Fatal("empty schedule mangled")
	}
}

// improveReference is Improve with its own per-machine interval, demand
// and position lists: it prices a move by the spans of whole machines
// and checks capacity over the whole target machine. It is the oracle
// Improve's clipped Loads probes are checked against; the two agree on
// every schedule whose machines are within capacity, as Improve's input
// must be.
func improveReference(s core.Schedule, maxRounds int) core.Schedule {
	out := s.CompactMachines()
	in := out.Instance
	n := len(in.Jobs)
	if n == 0 {
		return out
	}
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
		idx := slices.Index(machinePos[m], pos)
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
			release := oldFrom - spanOf(from)

			bestTo := -1
			var bestDelta int64
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
			if delta := in.Jobs[pos].Len() - release; delta < 0 && (bestTo == -1 || delta < bestDelta) {
				bestTo = nextMachine
			}
			if bestTo == -1 {
				add(from, pos)
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

// Improve must give every job the machine the whole-machine reference
// gives it, from valid starting schedules with demands 1..g, after zero,
// one and two rounds (zero meaning until a local optimum).
func TestImproveMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		g := 1 + int(seed%4)
		in := workload.General(seed, workload.Config{N: 4 + int(seed%30), G: g, MaxTime: 150, MaxLen: 50})
		in = workload.WithDemands(seed, in, int64(1+seed%int64(g)))
		for _, start := range []core.Schedule{core.NaivePerJob(in), demand.FirstFit(in)} {
			for _, rounds := range []int{0, 1, 2} {
				want := improveReference(start, rounds).Machine
				if got := Improve(start, rounds).Machine; !slices.Equal(got, want) {
					t.Fatalf("seed %d, %d rounds: machines %v, reference %v", seed, rounds, got, want)
				}
			}
		}
	}
}
