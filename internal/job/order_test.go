package job_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/workload"
)

// refByStart is the stable (start, end) sort the start order replaced.
func refByStart(jobs []job.Job) []int {
	order := refPositions(len(jobs))
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := jobs[order[a]], jobs[order[b]]
		if ja.Start() != jb.Start() {
			return ja.Start() < jb.Start()
		}
		return ja.End() < jb.End()
	})
	return order
}

// refByLenDesc is the stable non-increasing-length sort the length order
// replaced.
func refByLenDesc(jobs []job.Job) []int {
	order := refPositions(len(jobs))
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Len() > jobs[order[b]].Len()
	})
	return order
}

func refPositions(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// The two orders equal the stable sorts they replaced on every workload
// family, ties included: clique and one-sided instances share starts or
// ends, and short horizons make equal lengths common.
func TestOrdersMatchStableSorts(t *testing.T) {
	for _, fam := range workload.Names() {
		for _, n := range []int{0, 1, 2, 30, 500} {
			for seed := int64(1); seed <= 50; seed++ {
				in, err := workload.ByName(fam, seed, workload.Config{N: n, G: 3, MaxTime: int64(n), MaxLen: 20})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := job.ByStart(in.Jobs), refByStart(in.Jobs); !slices.Equal(got, want) {
					t.Fatalf("%s n=%d seed=%d: ByStart = %v, want %v", fam, n, seed, got, want)
				}
				if got, want := job.ByLenDesc(in.Jobs), refByLenDesc(in.Jobs); !slices.Equal(got, want) {
					t.Fatalf("%s n=%d seed=%d: ByLenDesc = %v, want %v", fam, n, seed, got, want)
				}
			}
		}
	}
}

// shuffled returns a generated instance with its jobs in random order,
// so that its ByStart order is far from the identity.
func shuffled(seed int64, n int) job.Instance {
	in := workload.General(seed, workload.Config{N: n, G: 2, MaxTime: 30, MaxLen: 10})
	rand.New(rand.NewSource(seed)).Shuffle(n, func(a, b int) { in.Jobs[a], in.Jobs[b] = in.Jobs[b], in.Jobs[a] })
	return in
}

// IsByStart accepts exactly the ByStart order: not a stale order of
// other jobs, a repeated or missing position, an out-of-range entry, a
// wrong length or nil.
func TestIsByStart(t *testing.T) {
	in := shuffled(3, 40)
	order := job.ByStart(in.Jobs)
	if !job.IsByStart(in.Jobs, order) {
		t.Fatal("IsByStart rejects ByStart's own order")
	}
	if !job.IsByStart(nil, nil) || !job.IsByStart([]job.Job{}, []int{}) {
		t.Error("IsByStart rejects the empty order of no jobs")
	}
	reversed := slices.Clone(order)
	slices.Reverse(reversed)
	swapped := slices.Clone(order)
	swapped[10], swapped[11] = swapped[11], swapped[10]
	repeated := slices.Clone(order)
	repeated[5] = repeated[4]
	for name, bad := range map[string][]int{
		"stale":    job.ByStart(shuffled(4, 40).Jobs),
		"reversed": reversed,
		"swapped":  swapped,
		"repeated": repeated,
		"range":    append(slices.Clone(order[:39]), 40),
		"negative": append([]int{-1}, order[1:]...),
		"short":    order[:39],
		"long":     append(slices.Clone(order), order[0]),
		"nil":      nil,
	} {
		if job.IsByStart(in.Jobs, bad) {
			t.Errorf("IsByStart accepts the %s order", name)
		}
	}
}

// SpanByStart over ByStart(jobs), and over any run of it, is
// interval.Span of those jobs, empty intervals included.
func TestSpanByStartMatchesSpan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		jobs := make([]job.Job, r.Intn(30))
		for i := range jobs {
			s := r.Int63n(40) - 20
			jobs[i] = job.Job{ID: i, Interval: interval.Interval{Start: s, End: s + r.Int63n(12) - 2}}
		}
		order := job.ByStart(jobs)
		lo := r.Intn(len(jobs) + 1)
		hi := lo + r.Intn(len(jobs)-lo+1)
		run := make([]interval.Interval, 0, hi-lo)
		for _, p := range order[lo:hi] {
			run = append(run, jobs[p].Interval)
		}
		if got, want := job.SpanByStart(jobs, order[lo:hi]), interval.Span(run); got != want {
			t.Fatalf("SpanByStart(%v) = %d, interval.Span = %d", run, got, want)
		}
	}
}
