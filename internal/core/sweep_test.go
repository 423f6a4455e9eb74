package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/workload"
)

// The references below are the map-and-per-machine-sort bodies Cost,
// Validate, Machines and CompactMachines had before they became passes
// over one start order. The passes must agree with them on every machine
// array, however malformed.

func costReference(s Schedule) int64 {
	var total int64
	for _, positions := range s.MachineJobs() {
		ivs := make([]interval.Interval, len(positions))
		for k, p := range positions {
			ivs[k] = s.Instance.Jobs[p].Interval
		}
		total += interval.Span(ivs)
	}
	return total
}

func validateReference(s Schedule) error {
	if len(s.Machine) != len(s.Instance.Jobs) {
		return fmt.Errorf("core: schedule covers %d jobs, instance has %d", len(s.Machine), len(s.Instance.Jobs))
	}
	for i, m := range s.Machine {
		if m != Unscheduled && m < 0 {
			return fmt.Errorf("core: job position %d on invalid machine %d", i, m)
		}
	}
	bad, badLoad := -1, int64(0)
	for m, positions := range s.MachineJobs() {
		if bad >= 0 && m > bad {
			continue
		}
		ivs := make([]interval.Interval, len(positions))
		demands := make([]int64, len(positions))
		for k, p := range positions {
			ivs[k] = s.Instance.Jobs[p].Interval
			demands[k] = s.Instance.Jobs[p].Demand
		}
		if load := interval.WeightedMaxConcurrency(ivs, demands); load > int64(s.Instance.G) {
			bad, badLoad = m, load
		}
	}
	if bad >= 0 {
		return fmt.Errorf("core: machine %d carries load %d > g = %d", bad, badLoad, s.Instance.G)
	}
	return nil
}

func compactReference(s Schedule) []int {
	out := make([]int, len(s.Machine))
	remap := map[int]int{}
	for i, m := range s.Machine {
		if m == Unscheduled {
			out[i] = Unscheduled
			continue
		}
		if _, ok := remap[m]; !ok {
			remap[m] = len(remap)
		}
		out[i] = remap[m]
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkSweeps compares Cost, Validate, Machines and CompactMachines, with
// and without a carried order, against the references.
func checkSweeps(t *testing.T, name string, s Schedule) {
	t.Helper()
	order := job.ByStart(s.Instance.Jobs)
	// The reference Cost reads Instance.Jobs at every array position, so
	// it is defined only for arrays no longer than the job list.
	if len(s.Machine) <= len(s.Instance.Jobs) {
		want := costReference(s)
		if got := s.Cost(); got != want {
			t.Errorf("%s: Cost = %d, reference %d (machine %v)", name, got, want, s.Machine)
		}
		if got := s.CostByStart(order); got != want {
			t.Errorf("%s: CostByStart = %d, reference %d", name, got, want)
		}
	}
	want := errText(validateReference(s))
	if got := errText(s.Validate()); got != want {
		t.Errorf("%s: Validate = %q, reference %q (machine %v)", name, got, want, s.Machine)
	}
	if got := errText(s.ValidateByStart(order)); got != want {
		t.Errorf("%s: ValidateByStart = %q, reference %q", name, got, want)
	}
	if got, want := s.Machines(), len(s.MachineJobs()); got != want {
		t.Errorf("%s: Machines = %d, reference %d", name, got, want)
	}
	if got, want := s.CompactMachines().Machine, compactReference(s); !slices.Equal(got, want) {
		t.Errorf("%s: CompactMachines = %v, reference %v", name, got, want)
	}
}

// machineArrays returns valid, overloaded and corrupted machine arrays
// for an instance of n jobs.
func machineArrays(r *rand.Rand, in job.Instance) map[string][]int {
	n := len(in.Jobs)
	arrays := map[string][]int{"first-fit": FirstFit(in).Machine}
	random := func(k int) []int {
		m := make([]int, n)
		for i := range m {
			m[i] = r.Intn(k+1) - 1
		}
		return m
	}
	arrays["random-few"] = random(3)
	arrays["random-many"] = random(n/2 + 1)
	arrays["all-one"] = make([]int, n)
	if n == 0 {
		return arrays
	}
	with := func(base []int, edit func(m []int)) []int {
		m := slices.Clone(base)
		edit(m)
		return m
	}
	ff := arrays["first-fit"]
	arrays["negative"] = with(ff, func(m []int) { m[r.Intn(n)] = -7 })
	arrays["huge"] = with(ff, func(m []int) { m[r.Intn(n)] = 1 << 40 })
	arrays["huge-overloaded"] = with(arrays["random-few"], func(m []int) {
		for i := range m {
			if m[i] == 1 {
				m[i] = 1 << 40
			}
		}
	})
	arrays["sparse"] = with(arrays["random-few"], func(m []int) {
		for i := range m {
			if m[i] >= 0 {
				m[i] = m[i]*1000 + 3
			}
		}
	})
	arrays["past-n"] = with(ff, func(m []int) {
		for i := range m {
			if m[i] >= 0 {
				m[i] += n
			}
		}
	})
	arrays["unscheduled"] = with(ff, func(m []int) {
		for i := range m {
			if r.Intn(3) == 0 {
				m[i] = Unscheduled
			}
		}
	})
	arrays["truncated"] = slices.Clone(ff[:n-1])
	arrays["padded"] = append(slices.Clone(ff), 0)
	return arrays
}

func TestScheduleSweepsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, family := range workload.Names() {
		for _, n := range []int{0, 1, 2, 7, 40, 300} {
			for _, g := range []int{1, 2, 3, 5} {
				for seed := int64(1); seed <= 3; seed++ {
					in, err := workload.ByName(family, seed, workload.Config{N: n, G: g, MaxTime: int64(n) * 3, MaxLen: 20})
					if err != nil {
						t.Fatal(err)
					}
					if seed > 1 {
						for i := range in.Jobs {
							in.Jobs[i].Demand = 1 + r.Int63n(int64(g))
						}
					}
					for name, m := range machineArrays(r, in) {
						checkSweeps(t, fmt.Sprintf("%s/n=%d/g=%d/seed=%d/%s", family, n, g, seed, name), Schedule{Instance: in, Machine: m})
					}
				}
			}
		}
	}
}

// Touching jobs never share capacity, and of several overloaded
// machines the lowest-numbered is reported with its own peak.
func TestValidateSweepEdges(t *testing.T) {
	in := job.NewInstance(1, [2]int64{1, 2}, [2]int64{2, 3}, [2]int64{0, 5}, [2]int64{4, 6}, [2]int64{0, 5}, [2]int64{1, 3}, [2]int64{2, 4})
	for _, m := range [][]int{
		{0, 0, 1, 1, 2, 2, 2},
		{0, 0, 9, 9, 4, 4, 4},
		{1 << 40, 1 << 40, 9, 9, 1<<40 + 1, 1<<40 + 1, 1<<40 + 1},
	} {
		checkSweeps(t, fmt.Sprint(m), Schedule{Instance: in, Machine: m})
	}
	s := Schedule{Instance: in, Machine: []int{0, 0, 9, 9, 4, 4, 4}}
	if got, want := errText(s.Validate()), "core: machine 4 carries load 3 > g = 1"; got != want {
		t.Errorf("Validate = %q, want %q", got, want)
	}
}

// FuzzScheduleSweeps decodes an instance and a machine array from bytes
// and compares the sweeps with the references. Each job takes four
// bytes: start, length (0 makes an empty interval), machine label and
// demand in 1..g. Labels 250–255 stand for labels a client might send:
// below Unscheduled, past the job count, and huge.
func FuzzScheduleSweeps(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 0, 2, 1, 0, 0})
	f.Add([]byte{2, 0, 5, 0, 0, 1, 3, 0, 1, 2, 3, 1, 0, 3, 2, 250, 1})
	f.Add([]byte{3, 0, 9, 252, 2, 0, 9, 252, 2, 4, 2, 253, 0, 9, 1, 255, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := 1 + int(data[0]%4)
		data = data[1:]
		in := job.Instance{G: g}
		var machine []int
		for i := 0; i+4 <= len(data) && i < 4*64; i += 4 {
			start := int64(data[i] % 32)
			end := start + int64(data[i+1]%12)
			in.Jobs = append(in.Jobs, job.Job{ID: len(in.Jobs), Interval: interval.Interval{Start: start, End: end}, Weight: 1, Demand: 1 + int64(data[i+3])%int64(g)})
			label := int(data[i+2]%8) - 1
			switch data[i+2] {
			case 250:
				label = -7
			case 251:
				label = -2
			case 252:
				label = 1 << 40
			case 253:
				label = 64
			case 254:
				label = 1<<40 + 1
			case 255:
				label = 1000
			}
			machine = append(machine, label)
		}
		if len(data)%4 == 1 && len(machine) > 0 {
			machine = machine[:len(machine)-1]
		}
		checkSweeps(t, "fuzz", Schedule{Instance: in, Machine: machine})
	})
}

// bestCutReference is BestCut building all g cut schedules and pricing
// each with Cost, the reference for pricing the cuts as runs of one
// start order.
func bestCutReference(in job.Instance) Schedule {
	n := len(in.Jobs)
	if n == 0 {
		return NewSchedule(in)
	}
	order := job.ByStart(in.Jobs)
	var best Schedule
	bestCost := int64(math.MaxInt64)
	for i := 1; i <= in.G; i++ {
		s := NewSchedule(in)
		for k := 0; k < i && k < n; k++ {
			s.Assign(order[k], 0)
		}
		machine := 1
		for lo := i; lo < n; lo += in.G {
			for k := lo; k < min(lo+in.G, n); k++ {
				s.Assign(order[k], machine)
			}
			machine++
		}
		if c := s.Cost(); c < bestCost {
			best, bestCost = s, c
		}
	}
	return best
}

func TestBestCutMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 9, 50, 400} {
		for _, g := range []int{1, 2, 3, 4, 7} {
			for seed := int64(1); seed <= 8; seed++ {
				in := workload.Proper(seed, workload.Config{N: n, G: g, MaxTime: int64(2 * n), MaxLen: 15})
				r.Shuffle(n, func(a, b int) { in.Jobs[a], in.Jobs[b] = in.Jobs[b], in.Jobs[a] })
				got, err := BestCut(in)
				if err != nil {
					t.Fatal(err)
				}
				if want := bestCutReference(in); !slices.Equal(got.Machine, want.Machine) {
					t.Fatalf("n=%d g=%d seed=%d: BestCut %v, reference %v", n, g, seed, got.Machine, want.Machine)
				}
			}
		}
	}
}
