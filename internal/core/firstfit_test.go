package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/workload"
)

// firstFitReference is FirstFit with plain job-list threads: each overlap
// check scans the whole thread. It is the oracle FirstFit's interval-treap
// threads are checked against.
func firstFitReference(in job.Instance) Schedule {
	s := NewSchedule(in)
	// threads[m][t] holds the jobs on thread t of machine m.
	type thread []int
	var machines [][]thread

	fits := func(th thread, p int) bool {
		for _, q := range th {
			if in.Jobs[q].Overlaps(in.Jobs[p]) {
				return false
			}
		}
		return true
	}

	for _, p := range job.ByLenDesc(in.Jobs) {
		placed := false
		for m := 0; m < len(machines) && !placed; m++ {
			for t := 0; t < len(machines[m]) && !placed; t++ {
				if fits(machines[m][t], p) {
					machines[m][t] = append(machines[m][t], p)
					s.Assign(p, m)
					placed = true
				}
			}
			if !placed && len(machines[m]) < in.G {
				machines[m] = append(machines[m], thread{p})
				s.Assign(p, m)
				placed = true
			}
		}
		if !placed {
			machines = append(machines, []thread{{p}})
			s.Assign(p, len(machines)-1)
		}
	}
	return s
}

// FirstFit must produce the identical assignment to the reference: same
// thread-visit order, same tie-breaking, only a faster overlap check.
func TestFirstFitMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, g := range []int{1, 2, 4} {
			in := workload.General(seed, workload.Config{N: 60, G: g, MaxTime: 300, MaxLen: 80})
			a := firstFitReference(in)
			b := FirstFit(in)
			for i := range a.Machine {
				if a.Machine[i] != b.Machine[i] {
					t.Fatalf("seed %d g %d: assignments differ at job %d: %d vs %d",
						seed, g, i, a.Machine[i], b.Machine[i])
				}
			}
		}
	}
}

func TestFirstFitValid(t *testing.T) {
	in := workload.Lightpaths(3, workload.Config{N: 80, G: 3, MaxTime: 500, MaxLen: 100})
	s := FirstFit(in)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Throughput() != len(in.Jobs) {
		t.Fatal("partial schedule")
	}
}

// Property: equivalence holds on arbitrary random instances, including
// heavy-overlap cliques.
func TestPropertyFirstFitEquivalence(t *testing.T) {
	f := func(seed int64, nRaw, gRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		g := int(gRaw%4) + 1
		jobs := make([]job.Job, n)
		for i := range jobs {
			s := r.Int63n(100)
			jobs[i] = job.New(i, s, s+1+r.Int63n(60))
		}
		in := job.Instance{Jobs: jobs, G: g}
		a := firstFitReference(in)
		b := FirstFit(in)
		for i := range a.Machine {
			if a.Machine[i] != b.Machine[i] {
				return false
			}
		}
		return b.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// BenchmarkFirstFitVsReference times FirstFit's treap threads against the
// linear-scan reference on the same instances.
func BenchmarkFirstFitVsReference(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		in := workload.General(1, workload.Config{N: n, G: 4, MaxTime: int64(n) * 5, MaxLen: 200})
		b.Run(fmt.Sprintf("linear/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				firstFitReference(in)
			}
		})
		b.Run(fmt.Sprintf("treap/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				FirstFit(in)
			}
		})
	}
}
