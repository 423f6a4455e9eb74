package localsearch

import (
	"testing"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/exact"
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
