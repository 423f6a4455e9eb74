package core

import (
	"testing"

	"repro/internal/job"
)

func TestScheduleCostGroupsByMachine(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15}, [2]int64{100, 110})
	s := NewSchedule(in)
	s.Assign(0, 0)
	s.Assign(1, 0)
	s.Assign(2, 1)
	if got := s.Cost(); got != 25 {
		t.Errorf("Cost = %d, want 15+10 = 25", got)
	}
	if s.Machines() != 2 {
		t.Errorf("Machines = %d", s.Machines())
	}
	if s.Throughput() != 3 {
		t.Errorf("Throughput = %d", s.Throughput())
	}
}

func TestScheduleCostDisconnectedMachine(t *testing.T) {
	// A machine with two far-apart jobs is charged only busy measure.
	in := job.NewInstance(1, [2]int64{0, 10}, [2]int64{100, 110})
	s := NewSchedule(in)
	s.Assign(0, 7)
	s.Assign(1, 7)
	if got := s.Cost(); got != 20 {
		t.Errorf("Cost = %d, want 20", got)
	}
}

func TestScheduleSaving(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15})
	s := NewSchedule(in)
	s.Assign(0, 0)
	s.Assign(1, 0)
	if got := s.Saving(); got != 5 {
		t.Errorf("Saving = %d, want overlap 5", got)
	}
}

func TestSchedulePartialThroughput(t *testing.T) {
	in := job.NewInstance(1, [2]int64{0, 10}, [2]int64{5, 15})
	s := NewSchedule(in)
	s.Assign(1, 0)
	if s.Throughput() != 1 {
		t.Errorf("Throughput = %d", s.Throughput())
	}
	in.Jobs[1].Weight = 5
	s.Instance = in
	if s.WeightedThroughput() != 5 {
		t.Errorf("WeightedThroughput = %d", s.WeightedThroughput())
	}
}

func TestValidateCatchesOverload(t *testing.T) {
	in := job.NewInstance(1, [2]int64{0, 10}, [2]int64{5, 15})
	s := NewSchedule(in)
	s.Assign(0, 0)
	s.Assign(1, 0)
	if err := s.Validate(); err == nil {
		t.Fatal("two overlapping jobs on a g=1 machine should be invalid")
	}
	// Touching jobs are fine on one thread.
	in2 := job.NewInstance(1, [2]int64{0, 10}, [2]int64{10, 20})
	s2 := NewSchedule(in2)
	s2.Assign(0, 0)
	s2.Assign(1, 0)
	if err := s2.Validate(); err != nil {
		t.Fatalf("touching jobs rejected: %v", err)
	}
}

func TestValidateCountsDemands(t *testing.T) {
	in := job.NewInstance(3, [2]int64{0, 10}, [2]int64{0, 10})
	in.Jobs[0].Demand = 2
	in.Jobs[1].Demand = 2
	s := NewSchedule(in)
	s.Assign(0, 0)
	s.Assign(1, 0)
	if err := s.Validate(); err == nil {
		t.Fatal("total demand 4 > g=3 should be invalid")
	}
}

// TestValidateErrorIsDeterministic overloads eight machines, machine m
// with m+2 overlapping jobs, so each would give its own error text:
// every call must report the lowest-numbered one.
func TestValidateErrorIsDeterministic(t *testing.T) {
	var ivs [][2]int64
	var machines []int
	for m := 0; m < 8; m++ {
		for k := 0; k < m+2; k++ {
			ivs = append(ivs, [2]int64{int64(100 * m), int64(100*m + 10)})
			machines = append(machines, m)
		}
	}
	s := NewSchedule(job.NewInstance(1, ivs...))
	for i, m := range machines {
		s.Assign(i, m)
	}
	const want = "core: machine 0 carries load 2 > g = 1"
	for call := 0; call < 50; call++ {
		if err := s.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate() = %v, want %q", call, err, want)
		}
	}
}

func TestValidateLengthMismatch(t *testing.T) {
	in := job.NewInstance(1, [2]int64{0, 10})
	s := Schedule{Instance: in, Machine: []int{0, 1}}
	if err := s.Validate(); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestCompactMachines(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 1}, [2]int64{2, 3}, [2]int64{4, 5})
	s := NewSchedule(in)
	s.Assign(0, 17)
	s.Assign(2, 4)
	c := s.CompactMachines()
	if c.Machine[0] != 0 || c.Machine[1] != Unscheduled || c.Machine[2] != 1 {
		t.Errorf("CompactMachines = %v", c.Machine)
	}
	if c.Cost() != s.Cost() {
		t.Error("compaction changed cost")
	}
}

func TestAssignPanicsOnNegativeMachine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative machine accepted")
		}
	}()
	in := job.NewInstance(1, [2]int64{0, 1})
	s := NewSchedule(in)
	s.Assign(0, -3)
}
