package power

import (
	"testing"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/workload"
)

func TestMachineEnergyNoGaps(t *testing.T) {
	busy := []interval.Interval{interval.New(0, 10)}
	if got := MachineEnergy(busy, 5); got != 15 { // 10 busy + 1 wake
		t.Errorf("energy = %d, want 15", got)
	}
}

func TestMachineEnergyShortGapIdles(t *testing.T) {
	busy := []interval.Interval{interval.New(0, 10), interval.New(12, 20)}
	// Gap 2 < wake 5: idle through. 18 busy + 2 idle + 5 wake.
	if got := MachineEnergy(busy, 5); got != 25 {
		t.Errorf("energy = %d, want 25", got)
	}
}

func TestMachineEnergyLongGapSleeps(t *testing.T) {
	busy := []interval.Interval{interval.New(0, 10), interval.New(100, 110)}
	// Gap 90 > wake 5: sleep and re-wake. 20 busy + 2 wakes.
	if got := MachineEnergy(busy, 5); got != 30 {
		t.Errorf("energy = %d, want 30", got)
	}
}

func TestMachineEnergyEmpty(t *testing.T) {
	if MachineEnergy(nil, 7) != 0 {
		t.Error("empty machine should cost 0")
	}
}

func TestScheduleEnergyZeroWakeEqualsCost(t *testing.T) {
	in := workload.General(3, workload.Config{N: 12, G: 3, MaxTime: 80, MaxLen: 25})
	s := core.FirstFit(in)
	if got := ScheduleEnergy(s, 0); got != s.Cost() {
		t.Errorf("zero-wake energy %d != cost %d", got, s.Cost())
	}
}

func TestScheduleEnergyMonotoneInWake(t *testing.T) {
	in := workload.General(5, workload.Config{N: 15, G: 2, MaxTime: 100, MaxLen: 20})
	s := core.FirstFit(in)
	prev := int64(-1)
	for _, wake := range []int64{0, 1, 5, 20, 100} {
		e := ScheduleEnergy(s, wake)
		if e < prev {
			t.Fatalf("energy decreased at wake %d: %d < %d", wake, e, prev)
		}
		prev = e
	}
}

func TestAnalyzeComponentsSum(t *testing.T) {
	in := job.NewInstance(1, [2]int64{0, 10}, [2]int64{12, 20}, [2]int64{200, 210})
	s := core.NewSchedule(in)
	for i := range in.Jobs {
		s.Assign(i, 0) // all on one machine, g=1 valid: disjoint
	}
	wake := int64(5)
	b := Analyze(s, wake)
	if b.Busy != 28 {
		t.Errorf("busy = %d", b.Busy)
	}
	if b.Idle != 2 { // gap 2 retained; gap 180 slept
		t.Errorf("idle = %d", b.Idle)
	}
	if b.Wakes != 2 {
		t.Errorf("wakes = %d", b.Wakes)
	}
	if b.Energy != ScheduleEnergy(s, wake) {
		t.Errorf("Analyze energy %d != ScheduleEnergy %d", b.Energy, ScheduleEnergy(s, wake))
	}
}
