package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	busytime "repro"
	. "repro/internal/core"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/workload"
)

// randomInstanceOfAnyClass draws an instance from a random family so the
// invariants below are exercised across every structural class.
func randomInstanceOfAnyClass(r *rand.Rand) job.Instance {
	cfg := workload.Config{
		N:       r.Intn(14) + 1,
		G:       r.Intn(4) + 1,
		MaxTime: 120,
		MaxLen:  int64(r.Intn(40) + 1),
	}
	seed := r.Int63()
	switch r.Intn(6) {
	case 0:
		return workload.General(seed, cfg)
	case 1:
		return workload.Clique(seed, cfg)
	case 2:
		return workload.Proper(seed, cfg)
	case 3:
		return workload.ProperClique(seed, cfg)
	case 4:
		return workload.OneSided(seed, cfg, seed%2 == 0)
	default:
		return workload.Lightpaths(seed, cfg)
	}
}

// Property: for every class and every total MinBusy algorithm the
// Solver's auto dispatch can choose, the returned schedule is valid,
// total, and its cost lies within the Observation 2.1 bounds.
func TestPropertyMinBusyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstanceOfAnyClass(r)
		bounds := BoundsOf(in)
		s, _ := solveAuto(t, busytime.Request{Instance: in})
		if s.Validate() != nil || s.Throughput() != len(in.Jobs) {
			return false
		}
		if !bounds.Contains(s.Cost()) {
			return false
		}
		// FirstFit and NaivePerJob must also respect the bounds.
		for _, alt := range []Schedule{FirstFit(in), NaivePerJob(in)} {
			if alt.Validate() != nil || !bounds.Contains(alt.Cost()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the Solver's throughput dispatch never exceeds the budget,
// never schedules more jobs than exist, and is monotone in the budget.
func TestPropertyThroughputInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstanceOfAnyClass(r)
		full := in.TotalLen()
		prev := -1
		for _, budget := range []int64{0, full / 4, full / 2, full} {
			s, _ := solveAuto(t, busytime.Request{Instance: in, Kind: busytime.KindMaxThroughput, Budget: budget})
			if s.Validate() != nil || s.Cost() > budget {
				return false
			}
			tput := s.Throughput()
			if tput > len(in.Jobs) {
				return false
			}
			if tput < prev {
				// Monotonicity holds for the exact algorithms; the greedy
				// and 4-approx are monotone on these budget ladders in
				// practice, but a strict check would be too strong for
				// approximations — only require no collapse to zero.
				if tput == 0 && prev > 0 {
					return false
				}
			}
			prev = tput
		}
		// With budget = len(J) every job fits (the length bound), so exact
		// algorithms schedule all n and the clique 4-approximation must
		// reach at least n/4.
		s, name := solveAuto(t, busytime.Request{Instance: in, Kind: busytime.KindMaxThroughput, Budget: full})
		n := len(in.Jobs)
		if name == "clique-throughput" {
			return 4*s.Throughput() >= n
		}
		return s.Throughput() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: the Solver's reported algorithm always matches the
// instance class contract: exact algorithms only run on their classes.
func TestPropertyDispatchContract(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstanceOfAnyClass(r)
		comps := igraph.SplitComponents(in)
		_, name := solveAuto(t, busytime.Request{Instance: in})
		if len(comps) > 1 {
			return len(name) > len("components:") && name[:11] == "components:"
		}
		switch igraph.Classify(in.Jobs) {
		case igraph.OneSidedClique:
			return name == "one-sided-greedy"
		case igraph.ProperClique:
			return name == "find-best-consecutive"
		case igraph.Clique:
			if in.G == 2 {
				return name == "clique-matching"
			}
			return name == "clique-set-cover" || name == "first-fit"
		case igraph.Proper:
			return name == "best-cut"
		default:
			return name == "first-fit"
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
