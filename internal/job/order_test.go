package job_test

import (
	"slices"
	"sort"
	"testing"

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
