package busytime

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/job"
	"repro/internal/workload"
)

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// Client-supplied machine arrays reach Cost and Machines through ResultOf
// before Certificate's Validate can reject them. Whatever the labels,
// the statistics and error texts are those of the map-based accounting
// they replaced, and nothing panics.
func TestResultOfOddLabels(t *testing.T) {
	// Two overlapping triples: {0,1,2} peaks at 3 during [8,10), {3,4,5}
	// during [22,25). span 25, len 45, so the bound is max(25, 23) = 25.
	in := NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15}, [2]int64{8, 12},
		[2]int64{20, 30}, [2]int64{21, 25}, [2]int64{22, 29})
	const huge = 1 << 40
	cases := []struct {
		name              string
		machine           []int
		cost              int64
		machines, sched   int
		validate, certify string
	}{
		{"valid", []int{0, 0, 1, 2, 2, 1}, 36, 3, 6, "<nil>", "<nil>"},
		{"negative", []int{0, -7, 1, 2, 2, 1}, 41, 4, 6,
			"core: job position 1 on invalid machine -7", "core: job position 1 on invalid machine -7"},
		{"below unscheduled", []int{-2, 0, 0, 1, 1, 1}, 30, 3, 6,
			"core: job position 0 on invalid machine -2", "core: job position 0 on invalid machine -2"},
		{"huge", []int{0, 0, huge, 2, 2, 1}, 36, 4, 6, "<nil>", "<nil>"},
		{"huge overloaded", []int{huge + 1, huge + 1, huge + 1, huge, huge, huge}, 25, 2, 6,
			"core: machine 1099511627776 carries load 3 > g = 2", "core: machine 1099511627776 carries load 3 > g = 2"},
		{"sparse overloaded", []int{9000, 9000, 9000, 40, 40, 40}, 25, 2, 6,
			"core: machine 40 carries load 3 > g = 2", "core: machine 40 carries load 3 > g = 2"},
		{"past n", []int{6, 6, 7, 8, 8, 7}, 36, 3, 6, "<nil>", "<nil>"},
		{"unscheduled", []int{0, -1, -1, 2, 2, 1}, 27, 3, 4, "<nil>", "<nil>"},
		{"none scheduled", []int{-1, -1, -1, -1, -1, -1}, 0, 0, 0, "<nil>", "<nil>"},
		// A truncated array is not charged: ResultOf leaves the
		// statistics zero and Certificate reports the length.
		{"truncated", []int{0, 0, 1, 2, 2}, 0, 0, 0,
			"core: schedule covers 5 jobs, instance has 6", "core: schedule covers 5 jobs, instance has 6"},
	}
	for _, c := range cases {
		s := Schedule{Instance: in, Machine: c.machine}
		res := ResultOf("client", s)
		if res.Cost != c.cost || res.Machines != c.machines || res.Scheduled != c.sched {
			t.Errorf("%s: cost %d, machines %d, scheduled %d; want %d, %d, %d",
				c.name, res.Cost, res.Machines, res.Scheduled, c.cost, c.machines, c.sched)
		}
		if res.LowerBound != 25 || res.Class != ClassGeneral || res.N != 6 {
			t.Errorf("%s: bound %d, class %v, n %d; want 25, general, 6", c.name, res.LowerBound, res.Class, res.N)
		}
		if got := errText(s.Validate()); got != c.validate {
			t.Errorf("%s: Validate = %q, want %q", c.name, got, c.validate)
		}
		if got := errText(res.Certificate()); got != c.certify {
			t.Errorf("%s: Certificate = %q, want %q", c.name, got, c.certify)
		}
		if c.certify == "<nil>" {
			res.Cost++
			want := fmt.Sprintf("busytime: reported cost %d, schedule costs %d", c.cost+1, c.cost)
			if got := errText(res.Certificate()); got != want {
				t.Errorf("%s: Certificate with cost+1 = %q, want %q", c.name, got, want)
			}
		}
	}
}

// A Result's carried order is checked, never trusted: a stale order (of
// other jobs), one that is not a permutation, one out of order, a short
// one and none at all all give the verdict Certificate gives with no
// order. Each bad order would misprice the schedule if trusted, so a
// Certificate that skipped the check would fail here.
func TestCertificateChecksCarriedOrder(t *testing.T) {
	gen := func(seed int64) Instance {
		return workload.General(seed, workload.Config{N: 60, G: 3, MaxTime: 200, MaxLen: 40})
	}
	in := gen(1)
	res, err := NewSolver().Solve(context.Background(), Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if !job.IsByStart(in.Jobs, res.order) {
		t.Fatal("the solver's Result does not carry the instance's order")
	}
	good := res.order
	reversed := slices.Clone(good)
	slices.Reverse(reversed)
	bad := map[string][]int{
		"stale":           job.ByStart(gen(2).Jobs),
		"not permutation": make([]int, len(good)),
		"reversed":        reversed,
		"short":           good[:len(good)-1],
		"out of range":    append(slices.Clone(good[1:]), len(good)),
		"nil":             nil,
	}
	overloaded := res
	overloaded.Schedule = Schedule{Instance: in, Machine: make([]int, len(in.Jobs))}
	variants := map[string]Result{"certified": res, "overloaded": overloaded}
	wrongCost := res
	wrongCost.Cost++
	variants["wrong cost"] = wrongCost
	for vname, v := range variants {
		v.order = nil
		want := errText(v.Certificate())
		for bname, order := range bad {
			v.order = order
			if got := errText(v.Certificate()); got != want {
				t.Errorf("%s Result with a %s order: Certificate = %q, want %q", vname, bname, got, want)
			}
		}
	}
	for _, bname := range []string{"stale", "not permutation", "reversed"} {
		if res.Schedule.CostByStart(bad[bname]) == res.Cost {
			t.Errorf("the %s order prices the schedule correctly, so it cannot show a trusted order", bname)
		}
	}
}
