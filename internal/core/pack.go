package core

import (
	"fmt"
	"math"
	"sort"
)

// ThreadPacker is the placement step of Algorithm 3 (FirstFit): machines
// of at most G threads, each thread a list of pairwise non-overlapping
// jobs. FirstFit2D, the ring's FirstFit and GreedyThroughput share it and
// differ only in the job order and the overlap test.
type ThreadPacker struct {
	G        int
	machines [][][]int // machines[m][t] = job positions on thread t of machine m
}

// Place puts job p on the first thread, in machine order, that fits
// accepts; failing that, on a new thread of the first machine with fewer
// than G threads; failing that, on a new machine. fits reports whether p
// can join the given thread. Place returns p's machine and thread.
func (k *ThreadPacker) Place(p int, fits func(thread []int) bool) (machine, thread int) {
	for m, threads := range k.machines {
		for t, jobs := range threads {
			if fits(jobs) {
				threads[t] = append(jobs, p)
				return m, t
			}
		}
		if len(threads) < k.G {
			k.machines[m] = append(threads, []int{p})
			return m, len(threads)
		}
	}
	k.machines = append(k.machines, [][]int{{p}})
	return len(k.machines) - 1, 0
}

// Undo takes back the last Place, which returned (m, t): it pops the job,
// and drops the thread or machine Place opened for it, if any.
func (k *ThreadPacker) Undo(m, t int) {
	thread := k.machines[m][t]
	k.machines[m][t] = thread[:len(thread)-1]
	if len(thread) > 1 {
		return
	}
	// Place opened this thread, the last of machine m; thread 0 means it
	// opened machine m too, the last machine.
	k.machines[m] = k.machines[m][:t]
	if t == 0 {
		k.machines = k.machines[:m]
	}
}

// BucketPack is the bucketing of Algorithm 4: job i joins length class b,
// the least b ≥ 0 with lengths[i] ≤ min·β^b where min is the smallest
// length, so each class spans a length ratio of at most β. pack runs once
// per nonempty class in increasing class order, on the class's positions
// in increasing order, and returns each one's machine numbered from 0
// within the class. BucketPack moves each class onto machines after the
// previous classes' and returns every job's machine. It rejects β ≤ 1
// and non-positive lengths.
func BucketPack(lengths []int64, beta float64, pack func(members []int) []int) ([]int, error) {
	if beta <= 1 {
		return nil, fmt.Errorf("needs beta > 1, got %v", beta)
	}
	minLen := int64(math.MaxInt64)
	for i, l := range lengths {
		if l <= 0 {
			return nil, fmt.Errorf("needs positive lengths, job %d has length %d", i, l)
		}
		minLen = min(minLen, l)
	}

	// Class b holds lengths in (min·β^(b-1), min·β^b].
	classes := map[int][]int{}
	for i, l := range lengths {
		ratio := float64(l) / float64(minLen)
		b := 0
		if ratio > 1 {
			b = int(math.Ceil(math.Log(ratio) / math.Log(beta)))
			// Boundary values belong to the lower class per the paper's
			// closed-interval bucket definition.
			if math.Pow(beta, float64(b-1)) >= ratio-1e-12 && b > 0 {
				b--
			}
		}
		classes[b] = append(classes[b], i)
	}
	keys := make([]int, 0, len(classes))
	for b := range classes {
		keys = append(keys, b)
	}
	sort.Ints(keys)

	machine := make([]int, len(lengths))
	base := 0
	for _, b := range keys {
		used := 0
		for k, m := range pack(classes[b]) {
			machine[classes[b][k]] = base + m
			used = max(used, m+1)
		}
		base += used
	}
	return machine, nil
}
