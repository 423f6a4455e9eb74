package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/workload"
)

// firstFitReference is FirstFit with plain job-list threads: each overlap
// check scans the whole thread. It is the oracle FirstFit is checked
// against. An empty job fits no existing thread: it opens a new one, as
// FirstFit's does.
func firstFitReference(in job.Instance) Schedule {
	s := NewSchedule(in)
	// threads[m][t] holds the jobs on thread t of machine m.
	type thread []int
	var machines [][]thread

	fits := func(th thread, p int) bool {
		if in.Jobs[p].Interval.Empty() {
			return false
		}
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

// checkFirstFit fails the test unless FirstFit's assignment equals the
// reference's: the same machine for every job.
func checkFirstFit(t *testing.T, name string, in job.Instance) {
	t.Helper()
	want, got := firstFitReference(in), FirstFit(in)
	for i := range want.Machine {
		if got.Machine[i] != want.Machine[i] {
			t.Fatalf("%s: job %d %v on machine %d, want %d", name, i, in.Jobs[i].Interval, got.Machine[i], want.Machine[i])
		}
	}
}

// unitChainFarJob is a chain of n−1 touching unit jobs plus one unit job
// far past its end: the far start stretches the class's start range, so
// the whole chain shares one bucket of the index.
func unitChainFarJob(n int) job.Instance {
	in := job.Instance{Jobs: make([]job.Job, n), G: 1}
	for i := range n - 1 {
		in.Jobs[i] = job.New(i, int64(i), int64(i)+1)
	}
	if n > 0 {
		in.Jobs[n-1] = job.New(n-1, 1<<50, 1<<50+1)
	}
	return in
}

// denseClusterFarJob is n−1 jobs of lengths 1..200 starting in [0, n/8)
// plus one job far past them, on g = 8.
func denseClusterFarJob(n int) job.Instance {
	in := workload.General(1, workload.Config{N: n, G: 8, MaxTime: int64(n / 8), MaxLen: 200})
	if n > 0 {
		in.Jobs[n-1].Interval = interval.New(1<<50, 1<<50+100)
	}
	return in
}

// withHorizonJobs is general at n with five extra jobs that each span
// the whole horizon: a few long jobs beside many short ones.
func withHorizonJobs(n int) job.Instance {
	in := workload.General(1, workload.Config{N: n, G: 4, MaxTime: int64(n) * 5, MaxLen: 200})
	for k := range 5 {
		in.Jobs = append(in.Jobs, job.New(len(in.Jobs), int64(k), int64(n)*5+200-int64(k)))
	}
	return in
}

// randomWide draws up to 80 jobs from a shape FirstFit's index must hold
// exactly: starts near −2^62, 0 or 2^62, lengths from 1 to 2^40,
// repeated intervals, empty jobs (end at or before start), and intervals
// longer than math.MaxInt64, whose Len wraps negative.
func randomWide(r *rand.Rand) job.Instance {
	in := job.Instance{Jobs: make([]job.Job, r.Intn(81)), G: 1 + r.Intn(8)}
	base := []int64{-1 << 62, 0, 1 << 62}[r.Intn(3)]
	for i := range in.Jobs {
		var iv interval.Interval
		switch k := r.Intn(12); {
		case k == 0 && i > 0:
			iv = in.Jobs[r.Intn(i)].Interval
		case k == 1:
			s := base + r.Int63n(1<<20)
			iv = interval.Interval{Start: s, End: s - r.Int63n(3)}
		case k == 2:
			iv = interval.Interval{Start: -1<<62 - r.Int63n(1<<62), End: 1<<62 + r.Int63n(1<<62)}
		default:
			s := base + r.Int63n(int64(1)<<(1+r.Intn(42))) - 1<<20
			iv = interval.Interval{Start: s, End: s + 1 + r.Int63n(int64(1)<<r.Intn(41))}
		}
		in.Jobs[i] = job.Job{ID: i, Interval: iv, Weight: 1, Demand: 1}
	}
	return in
}

// FirstFit must produce the identical assignment to the reference: same
// thread-visit order, same tie-breaking, only a faster overlap check.
// The instances cover every workload family, wide and wrapped intervals,
// and the far-outlier shapes that crowd one bucket.
func TestFirstFitMatchesReference(t *testing.T) {
	for _, family := range workload.Names() {
		for _, n := range []int{0, 1, 2, 7, 40, 300, 2000} {
			for _, g := range []int{1, 2, 3, 5, 8} {
				seeds := int64(3)
				if n == 2000 {
					seeds = 1
				}
				for seed := int64(1); seed <= seeds; seed++ {
					in, err := workload.ByName(family, seed, workload.Config{N: n, G: g, MaxTime: int64(n) * 5, MaxLen: 200})
					if err != nil {
						t.Fatal(err)
					}
					checkFirstFit(t, fmt.Sprintf("%s/n=%d/g=%d/seed=%d", family, n, g, seed), in)
				}
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for trial := range 3000 {
		checkFirstFit(t, fmt.Sprintf("wide trial %d", trial), randomWide(r))
	}
	checkFirstFit(t, "unit chain and far job", unitChainFarJob(3000))
	checkFirstFit(t, "dense cluster and far job", denseClusterFarJob(2000))
	checkFirstFit(t, "horizon-long jobs", withHorizonJobs(1000))
}

// Hand-written edges of the index: class 63 and its neighbours, starts
// at the ends of the int64 range, and empty jobs among others, each also
// at g = 0 and g = −1, where no machine opens a second thread.
func TestFirstFitEdges(t *testing.T) {
	const minT, maxT = math.MinInt64, math.MaxInt64
	for name, spans := range map[string][][2]int64{
		"whole range":           {{minT, maxT}, {minT, maxT}, {0, 1}, {minT, minT + 1}, {maxT - 1, maxT}},
		"wrapped beside short":  {{-1 << 62, 1<<62 + 1}, {0, 10}, {5, 15}, {-1<<62 - 5, 1 << 62}, {1 << 62, 1<<62 + 2}, {3, 4}},
		"class 62 and 63":       {{0, 1 << 62}, {1, 1<<62 + 1}, {-1 << 62, 1}, {-1<<62 - 1, 1}, {1<<62 - 1, 1 << 62}},
		"empty among jobs":      {{0, 10}, {3, 3}, {5, 2}, {0, 10}, {maxT, maxT}, {minT, minT}, {2, 4}},
		"only empty jobs":       {{1, 1}, {2, 1}, {0, 0}},
		"reach below min int64": {{minT, minT + 100}, {minT + 50, minT + 60}, {minT + 1, minT + 2}},
	} {
		for _, g := range []int{-1, 0, 1, 2, 3} {
			in := job.Instance{G: g}
			for i, s := range spans {
				in.Jobs = append(in.Jobs, job.Job{ID: i, Interval: interval.Interval{Start: s[0], End: s[1]}, Weight: 1, Demand: 1})
			}
			checkFirstFit(t, fmt.Sprintf("%s/g=%d", name, g), in)
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
		return slices.Equal(a.Machine, b.Machine) && b.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// FirstFit allocates its index and order once per call, never per job.
func TestFirstFitAllocs(t *testing.T) {
	for _, n := range []int{1000, 8000} {
		in := workload.General(1, workload.Config{N: n, G: 4, MaxTime: int64(n) * 5, MaxLen: 200})
		if allocs := testing.AllocsPerRun(3, func() { FirstFit(in) }); allocs > 16 {
			t.Errorf("FirstFit at n=%d: %.0f allocations, want at most 16", n, allocs)
		}
	}
}

// decodeFirstFit turns bytes into an instance of at most 64 jobs for
// FuzzFirstFit. The first byte sets g in −1..8, so g below 1, which
// FirstFit accepts unvalidated, is drawn too. Each job then takes four
// bytes: a signed start digit and its left shift, and a length digit
// and its left shift. Shifts reach past 2^62, so starts come near both
// ends of the int64 range and lengths past math.MaxInt64; the addition
// wraps, so some jobs end at or before their start and are empty.
func decodeFirstFit(data []byte) job.Instance {
	in := job.Instance{G: 1}
	if len(data) == 0 {
		return in
	}
	in.G = int(data[0]%10) - 1
	for i := 1; i+4 <= len(data) && len(in.Jobs) < 64; i += 4 {
		start := int64(int8(data[i])) << (data[i+1] % 64)
		end := int64(uint64(start) + uint64(data[i+2])<<(data[i+3]%64))
		in.Jobs = append(in.Jobs, job.Job{ID: len(in.Jobs), Interval: interval.Interval{Start: start, End: end}, Weight: 1, Demand: 1})
	}
	return in
}

// FuzzFirstFit compares FirstFit with the linear-scan reference on
// decoded instances. Run with:
//
//	go test -fuzz FuzzFirstFit -fuzztime 30s -run '^$' ./internal/core
func FuzzFirstFit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFirstFit(t, "fuzz", decodeFirstFit(data))
	})
}

var sinkSchedule Schedule

// BenchmarkFirstFit times FirstFit on a sparse general instance, two
// dense families, a few horizon-long jobs among short ones, and a unit
// chain with one far job, whose far start crowds one bucket of the
// index. The linear-scan reference runs beside it at n = 1,000.
func BenchmarkFirstFit(b *testing.B) {
	cases := []struct {
		name string
		in   job.Instance
	}{
		{"general/n=4000", workload.General(1, workload.Config{N: 4000, G: 4, MaxTime: 20000, MaxLen: 200})},
		{"clique/n=1500", workload.Clique(1, workload.Config{N: 1500, G: 4, MaxTime: 7500, MaxLen: 200})},
		{"lightpaths/n=1500", workload.Lightpaths(1, workload.Config{N: 1500, G: 4, MaxTime: 7500, MaxLen: 200})},
		{"horizon-jobs/n=4005", withHorizonJobs(4000)},
		{"unit-chain-far-job/n=100000", unitChainFarJob(100000)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				sinkSchedule = FirstFit(c.in)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(c.in.Jobs)), "us/job")
		})
	}
	ref := workload.General(1, workload.Config{N: 1000, G: 4, MaxTime: 5000, MaxLen: 200})
	b.Run("general/n=1000", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			sinkSchedule = FirstFit(ref)
		}
	})
	b.Run("reference/general/n=1000", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			sinkSchedule = firstFitReference(ref)
		}
	})
}
