package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/igraph"
	"repro/internal/job"
)

// OneSidedThroughput solves one-sided clique instances of MaxThroughput
// optimally (Proposition 4.1): some optimal schedule consists of the j
// shortest jobs for some j, scheduled greedily (Observation 3.1), so it
// suffices to scan j from n down and take the first prefix whose optimal
// cost fits the budget.
func OneSidedThroughput(in job.Instance, budget int64) (Schedule, error) {
	if igraph.OneSidedness(in.Jobs) == igraph.NotOneSided {
		return Schedule{}, fmt.Errorf("core: OneSidedThroughput requires a one-sided clique instance")
	}
	n := len(in.Jobs)
	// Shortest first.
	asc := byLenDescOrder(in.Jobs)
	reverseInts(asc)

	// prefixCost[j] = optimal cost of scheduling the j shortest jobs: group
	// them longest-first in groups of g; the cost is the sum of each
	// group's longest job (one-sided: span of a group = max length).
	prefixCost := make([]int64, n+1)
	for j := 1; j <= n; j++ {
		prefixCost[j] = 0
		// Jobs asc[0..j) sorted ascending by length; longest-first groups
		// take indices j-1, j-2, ... with group leaders at j-1, j-1-g, ...
		for lead := j - 1; lead >= 0; lead -= in.G {
			prefixCost[j] += in.Jobs[asc[lead]].Len()
		}
	}

	best := 0
	for j := n; j >= 0; j-- {
		if prefixCost[j] <= budget {
			best = j
			break
		}
	}
	s := NewSchedule(in)
	machine := 0
	for lead := best - 1; lead >= 0; lead -= in.G {
		for k := lead; k > lead-in.G && k >= 0; k-- {
			s.Assign(asc[k], machine)
		}
		machine++
	}
	return s, nil
}

// CliqueAlg1 implements Algorithm 5 (Alg1) of the paper for clique
// instances of MaxThroughput. Fix a common time t; split jobs into
// left-heavy and right-heavy; among all prefix pairs (j shortest-headed
// left-heavy jobs, k shortest-headed right-heavy jobs) pick the pair
// maximizing j+k whose total reduced (head-only) cost is ≤ T/2; schedule
// each prefix reduced-optimally. The actual cost is at most twice the
// reduced cost, hence ≤ T. By Lemma 4.1 this is a 4-approximation whenever
// tput* > 4g.
func CliqueAlg1(in job.Instance, budget int64) (Schedule, error) {
	t, ok := igraph.CommonTime(in.Jobs)
	if !ok {
		return Schedule{}, fmt.Errorf("core: CliqueAlg1 requires a clique instance")
	}

	type headed struct {
		pos  int
		head int64
	}
	var left, right []headed
	for i, j := range in.Jobs {
		l := t - j.Start()
		r := j.End() - t
		if l >= r { // ties: left part is the head (paper convention)
			left = append(left, headed{i, l})
		} else {
			right = append(right, headed{i, r})
		}
	}
	sortHeaded := func(xs []headed) {
		sort.Slice(xs, func(a, b int) bool { return xs[a].head < xs[b].head })
	}
	sortHeaded(left)
	sortHeaded(right)

	// reducedPrefixCost[j] = optimal reduced cost of the j shortest-headed
	// jobs: longest-first groups of g, each costing its longest head
	// (a one-sided instance in the reduced model).
	costs := func(xs []headed) []int64 {
		out := make([]int64, len(xs)+1)
		for j := 1; j <= len(xs); j++ {
			var c int64
			for lead := j - 1; lead >= 0; lead -= in.G {
				c += xs[lead].head
			}
			out[j] = c
		}
		return out
	}
	costL, costR := costs(left), costs(right)

	// Choose j + k maximal with 2*(costL[j]+costR[k]) <= budget. costR is
	// nondecreasing, so a two-pointer scan suffices.
	bestJ, bestK := -1, -1
	k := len(right)
	for j := 0; j <= len(left); j++ {
		for k >= 0 && 2*(costL[j]+costR[k]) > budget {
			k--
		}
		if k < 0 {
			break
		}
		if bestJ == -1 || j+k > bestJ+bestK {
			bestJ, bestK = j, k
		}
	}
	s := NewSchedule(in)
	if bestJ == -1 {
		return s, nil // nothing fits
	}
	machine := 0
	assign := func(xs []headed, count int) {
		for lead := count - 1; lead >= 0; lead -= in.G {
			for p := lead; p > lead-in.G && p >= 0; p-- {
				s.Assign(xs[p].pos, machine)
			}
			machine++
		}
	}
	assign(left, bestJ)
	assign(right, bestK)
	return s, nil
}

// CliqueAlg2 implements Algorithm 6 (Alg2) of the paper: consider every
// pair of jobs whose joint span fits the budget, find the pair covering the
// most jobs, and schedule up to g covered jobs on one machine. By Lemma 4.2
// this is a 4-approximation whenever tput* ≤ 4g.
func CliqueAlg2(in job.Instance, budget int64) (Schedule, error) {
	if !igraph.IsClique(in.Jobs) {
		return Schedule{}, fmt.Errorf("core: CliqueAlg2 requires a clique instance")
	}
	n := len(in.Jobs)
	s := NewSchedule(in)
	if n == 0 {
		return s, nil
	}

	bestCover := []int{}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			span := in.Jobs[i].Interval.Hull(in.Jobs[j].Interval)
			if span.Len() > budget {
				continue
			}
			var cover []int
			for p := 0; p < n; p++ {
				if span.Contains(in.Jobs[p].Interval) {
					cover = append(cover, p)
				}
			}
			if len(cover) > len(bestCover) {
				bestCover = cover
			}
		}
	}
	for k, p := range bestCover {
		if k == in.G {
			break
		}
		s.Assign(p, 0)
	}
	return s, nil
}

// CliqueThroughput combines Alg1 and Alg2 and returns the better schedule —
// the paper's 4-approximation for clique instances of MaxThroughput for
// any g and any budget (Theorem 4.1).
func CliqueThroughput(in job.Instance, budget int64) (Schedule, error) {
	s1, err := CliqueAlg1(in, budget)
	if err != nil {
		return Schedule{}, err
	}
	s2, err := CliqueAlg2(in, budget)
	if err != nil {
		return Schedule{}, err
	}
	if s2.Throughput() > s1.Throughput() {
		return s2, nil
	}
	return s1, nil
}

// MostThroughputConsecutive solves proper clique instances of
// MaxThroughput optimally in O(n²·g) time (Theorem 4.2). By Lemma 4.3 an
// optimal partial schedule partitions the start-sorted job sequence into
// scheduled blocks of ≤ g consecutive jobs (one machine each) and
// unscheduled gaps, so
//
//	dp[i][t] = min cost scheduling the first i jobs with t unscheduled
//	         = min( dp[i-1][t-1],                           // skip job i
//	               min_{1≤j≤min(g,i)} dp[i-j][t] + c_i − s_{i-j+1} )
//
// The answer is the smallest t with dp[n][t] ≤ T. This 2-index DP is
// equivalent to the paper's 4-index cost(i,j,u,t) table (the j and u
// indices only memoize block shapes the transition above enumerates
// directly); the test suite verifies agreement with the exponential oracle.
func MostThroughputConsecutive(in job.Instance, budget int64) (Schedule, error) {
	if !igraph.IsProperClique(in.Jobs) {
		return Schedule{}, fmt.Errorf("core: MostThroughputConsecutive requires a proper clique instance")
	}
	n := len(in.Jobs)
	s := NewSchedule(in)
	if n == 0 || budget < 0 {
		return s, nil
	}
	order := byStartOrder(in.Jobs)
	start := func(k int) int64 { return in.Jobs[order[k]].Start() }
	end := func(k int) int64 { return in.Jobs[order[k]].End() }

	const inf = math.MaxInt64 / 4
	dp := make([][]int64, n+1)
	// choice[i][t]: 0 = skip job i; j > 0 = job i ends a block of size j.
	choice := make([][]int32, n+1)
	for i := range dp {
		dp[i] = make([]int64, n+1)
		choice[i] = make([]int32, n+1)
		for t := range dp[i] {
			dp[i][t] = inf
		}
	}
	dp[0][0] = 0
	for i := 1; i <= n; i++ {
		for t := 0; t <= i; t++ {
			if t > 0 && dp[i-1][t-1] < dp[i][t] {
				dp[i][t] = dp[i-1][t-1]
				choice[i][t] = 0
			}
			for j := 1; j <= in.G && j <= i; j++ {
				if i-j < t { // cannot have t unscheduled among first i-j
					break
				}
				c := dp[i-j][t] + end(i-1) - start(i-j)
				if c < dp[i][t] {
					dp[i][t] = c
					choice[i][t] = int32(j)
				}
			}
		}
	}

	bestT := -1
	for t := 0; t <= n; t++ {
		if dp[n][t] <= budget {
			bestT = t
			break
		}
	}
	if bestT == -1 {
		return s, nil // not even the empty schedule? budget >= 0 admits t = n
	}

	machine := 0
	for i, t := n, bestT; i > 0; {
		if j := int(choice[i][t]); j == 0 {
			i--
			t--
		} else {
			for k := i - j; k < i; k++ {
				s.Assign(order[k], machine)
			}
			machine++
			i -= j
		}
	}
	return s, nil
}

// MostWeightConsecutive is the weighted-throughput extension (the
// Section 5 open question) for proper clique instances: maximize total
// scheduled weight within a busy-time budget.
//
// The unweighted Lemma 4.3 structure — machines consecutive in the full
// job list J — does not survive weights: its proof swaps an unscheduled
// middle job for a scheduled end job, which preserves count but not
// weight. What does survive is Lemma 3.3 applied to the scheduled subset
// S: machines hold consecutive runs of S, which in J-index space are
// disjoint windows [a, b] whose two endpoints are scheduled. Within a
// window the span cost is fixed at c_b − s_a (every interior job is
// contained in it, by properness), so the optimal filling is the window
// endpoints plus the g−2 heaviest interior jobs — they ride along free.
//
// The DP runs over windows with a Pareto frontier of (cost, weight) states
// per prefix, pruned to the budget; worst case O(n²·(g + frontier)) time.
func MostWeightConsecutive(in job.Instance, budget int64) (Schedule, error) {
	if !igraph.IsProperClique(in.Jobs) {
		return Schedule{}, fmt.Errorf("core: MostWeightConsecutive requires a proper clique instance")
	}
	n := len(in.Jobs)
	s := NewSchedule(in)
	if n == 0 || budget < 0 {
		return s, nil
	}
	order := byStartOrder(in.Jobs)
	start := func(k int) int64 { return in.Jobs[order[k]].Start() }
	end := func(k int) int64 { return in.Jobs[order[k]].End() }
	weight := func(k int) int64 { return in.Jobs[order[k]].Weight }

	// windowPick[a][i] (i >= a) = chosen interior positions (up to g−2
	// heaviest in (a, i)) and their weight, for the window [a, i].
	type pick struct {
		weight int64
		jobs   []int
	}
	windowPick := make([][]pick, n)
	for a := 0; a < n; a++ {
		windowPick[a] = make([]pick, n)
		// Extend the window rightward, maintaining the up-to-(g−2)
		// heaviest interior jobs.
		var chosen []int // positions, kept smallest-weight-first
		var sum int64
		for i := a; i < n; i++ {
			if i > a+1 {
				// Job i−1 became interior when the window reached i.
				p := i - 1
				chosen = append(chosen, p)
				sum += weight(p)
				sort.Slice(chosen, func(x, y int) bool { return weight(chosen[x]) < weight(chosen[y]) })
				if len(chosen) > in.G-2 {
					sum -= weight(chosen[0])
					chosen = chosen[1:]
				}
			}
			windowPick[a][i] = pick{weight: sum, jobs: append([]int(nil), chosen...)}
		}
	}

	// pareto[i] = Pareto frontier of (cost, weight) over the first i jobs:
	// strictly increasing cost and weight.
	type state struct {
		cost, weight int64
		prevI        int // prefix length before this step
		prevIdx      int // state index within pareto[prevI]
		winA         int // window start, or -1 when job i−1 was skipped
	}
	pareto := make([][]state, n+1)
	pareto[0] = []state{{0, 0, 0, -1, -1}}

	for i := 1; i <= n; i++ {
		var cands []state
		// Skip job i−1 (position i−1 unscheduled).
		for idx, st := range pareto[i-1] {
			cands = append(cands, state{st.cost, st.weight, i - 1, idx, -1})
		}
		// Job i−1 closes a window [a, i−1]. Singleton windows have a = i−1.
		for a := i - 1; a >= 0; a-- {
			if in.G == 1 && a != i-1 {
				break // g = 1 machines hold exactly one job
			}
			wCost := end(i-1) - start(a)
			var wWeight int64
			if a == i-1 {
				wWeight = weight(a)
			} else {
				wWeight = weight(a) + weight(i-1) + windowPick[a][i-1].weight
			}
			for idx, st := range pareto[a] {
				c := st.cost + wCost
				if c > budget {
					continue
				}
				cands = append(cands, state{c, st.weight + wWeight, a, idx, a})
			}
		}
		sort.Slice(cands, func(x, y int) bool {
			if cands[x].cost != cands[y].cost {
				return cands[x].cost < cands[y].cost
			}
			return cands[x].weight > cands[y].weight
		})
		var frontier []state
		var bestW int64 = -1
		for _, st := range cands {
			if st.weight > bestW {
				frontier = append(frontier, st)
				bestW = st.weight
			}
		}
		pareto[i] = frontier
	}

	bestIdx := -1
	var bestW int64 = -1
	for idx, st := range pareto[n] {
		if st.weight > bestW {
			bestIdx, bestW = idx, st.weight
		}
	}
	if bestIdx == -1 {
		return s, nil
	}

	machine := 0
	i, idx := n, bestIdx
	for i > 0 {
		st := pareto[i][idx]
		if st.winA >= 0 {
			a := st.winA
			s.Assign(order[a], machine)
			if a != i-1 {
				s.Assign(order[i-1], machine)
				for _, p := range windowPick[a][i-1].jobs {
					s.Assign(order[p], machine)
				}
			}
			machine++
		}
		i, idx = st.prevI, st.prevIdx
	}
	return s, nil
}

// OneSidedWeightThroughput solves the weighted MaxThroughput problem on
// one-sided clique instances exactly — the Section 5 weighted extension on
// the class where Proposition 4.1 solves the unweighted case. One-sided
// cliques are not proper (shared starts with different ends nest), so
// MostWeightConsecutive does not apply; instead we use Observation 3.1's
// structure: for any chosen subset S, the optimal grouping sorts S by
// non-increasing length and cuts consecutive blocks of g, paying each
// block leader's length. A DP over jobs in that order with state
// (#chosen mod g) and Pareto-pruned (cost, weight) values is exact; the
// test suite verifies it against the exhaustive weighted oracle.
func OneSidedWeightThroughput(in job.Instance, budget int64) (Schedule, error) {
	if igraph.OneSidedness(in.Jobs) == igraph.NotOneSided {
		return Schedule{}, fmt.Errorf("core: OneSidedWeightThroughput requires a one-sided clique instance")
	}
	n := len(in.Jobs)
	s := NewSchedule(in)
	if n == 0 || budget < 0 {
		return s, nil
	}
	order := byLenDescOrder(in.Jobs)

	type state struct {
		cost, weight int64
		prevIdx      int  // index into the previous job's frontier
		took         bool // whether this job was chosen
	}
	// frontier[r] = Pareto states with (#chosen mod g) == r, per prefix.
	type frontierSet [][]state
	newFrontier := func() frontierSet { return make(frontierSet, in.G) }

	prune := func(cands []state) []state {
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].cost != cands[b].cost {
				return cands[a].cost < cands[b].cost
			}
			return cands[a].weight > cands[b].weight
		})
		var out []state
		var bestW int64 = -1
		for _, st := range cands {
			if st.weight > bestW {
				out = append(out, st)
				bestW = st.weight
			}
		}
		return out
	}

	frontiers := make([]frontierSet, n+1)
	frontiers[0] = newFrontier()
	frontiers[0][0] = []state{{0, 0, -1, false}}

	for i := 1; i <= n; i++ {
		jb := in.Jobs[order[i-1]]
		cur := newFrontier()
		for r := 0; r < in.G; r++ {
			var cands []state
			// Skip job i−1: state unchanged.
			for idx, st := range frontiers[i-1][r] {
				cands = append(cands, state{st.cost, st.weight, idx, false})
			}
			// Take job i−1: it arrives at residue r, coming from residue
			// (r−1+g) mod g; it leads a new block iff r−1 ≡ −1, i.e. the
			// previous residue is 0 ... careful: leaders are chosen jobs
			// at positions ≡ 0 mod g among chosen, so taking a job moves
			// residue prev → prev+1 mod g and pays the job's length iff
			// prev == 0.
			prev := (r - 1 + in.G) % in.G
			for idx, st := range frontiers[i-1][prev] {
				cost := st.cost
				if prev == 0 {
					cost += jb.Len()
				}
				if cost > budget {
					continue
				}
				cands = append(cands, state{cost, st.weight + jb.Weight, idx, true})
			}
			cur[r] = prune(cands)
		}
		frontiers[i] = cur
	}

	// Best final state across residues.
	bestR, bestIdx := -1, -1
	var bestW int64 = -1
	for r := 0; r < in.G; r++ {
		for idx, st := range frontiers[n][r] {
			if st.weight > bestW {
				bestR, bestIdx, bestW = r, idx, st.weight
			}
		}
	}
	if bestIdx == -1 {
		return s, nil
	}

	// Reconstruct the chosen subsequence, then assign groups of g in
	// descending-length order.
	var chosen []int
	r, idx := bestR, bestIdx
	for i := n; i > 0; i-- {
		st := frontiers[i][r][idx]
		if st.took {
			chosen = append(chosen, order[i-1])
			r = (r - 1 + in.G) % in.G
		}
		idx = st.prevIdx
	}
	// chosen was collected back-to-front: reverse to descending length.
	reverseInts(chosen)
	for k, p := range chosen {
		s.Assign(p, k/in.G)
	}
	return s, nil
}

// GreedyThroughput is a budget-respecting heuristic for general instances
// of MaxThroughput, the general fallback of the registry's auto dispatch
// where the paper gives no algorithm: jobs are offered shortest-first to
// a FirstFit-style packing, and a job is kept only when the schedule's
// total cost stays within the budget. It carries no approximation
// guarantee (the general problem's approximability is one of the
// paper's open questions); the test suite checks validity and budget
// compliance only.
func GreedyThroughput(in job.Instance, budget int64) Schedule {
	s := NewSchedule(in)
	if budget <= 0 {
		return s
	}
	order := byLenDescOrder(in.Jobs)
	reverseInts(order) // shortest first

	packer := ThreadPacker{G: in.G}
	loads := NewLoads(s)
	var cost int64
	for _, p := range order {
		// Place tentatively, and take the placement back if its busy
		// time would overrun the budget.
		m, t := packer.Place(p, func(thread []int) bool {
			for _, q := range thread {
				if in.Jobs[q].Overlaps(in.Jobs[p]) {
					return false
				}
			}
			return true
		})
		// Place opened machine m. A machine Undo drops stays open, and
		// empty, in loads until Place opens it again.
		if m == loads.Machines() {
			loads.Open()
		}
		delta := loads.Marginal(m, p)
		if cost+delta > budget {
			packer.Undo(m, t)
			continue
		}
		cost += delta
		loads.Add(m, p)
		s.Assign(p, m)
	}
	return s
}

// MinBusyViaThroughput demonstrates Proposition 2.2: MinBusy reduces to
// MaxThroughput by binary search on the budget, querying an exact
// MaxThroughput solver until the smallest budget scheduling all jobs is
// found. solve must return an optimal schedule for the given budget.
func MinBusyViaThroughput(in job.Instance, solve func(job.Instance, int64) (Schedule, error)) (Schedule, error) {
	n := len(in.Jobs)
	if n == 0 {
		return NewSchedule(in), nil
	}
	lo := in.LowerBound() // cost* >= max(span, ceil(len/g))
	hi := in.TotalLen()   // cost* <= len(J)
	var best Schedule
	found := false
	for lo <= hi {
		mid := lo + (hi-lo)/2
		s, err := solve(in, mid)
		if err != nil {
			return Schedule{}, err
		}
		if s.Throughput() == n {
			best = s
			found = true
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if !found {
		return Schedule{}, fmt.Errorf("core: MinBusyViaThroughput: solver never scheduled all jobs within len(J)")
	}
	return best, nil
}

func reverseInts(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}
