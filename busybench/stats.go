package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: p99 needs at least 1000 samples.
const minTail = 10

// percentile returns the nearest-rank p-quantile of sorted (the
// smallest value with at least p·n samples at or below it, the
// definition `busysim loadgen` uses) and whether the sample supports it:
// at least minTail samples must lie beyond the rank.
func percentile(sorted []int64, p float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i], n-1-i >= minTail
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// medianFloat returns the median of xs (the mean of the middle pair for
// an even count).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// completion is one finished operation: when it finished (ns since the
// pass started), how many jobs it carried and its latency.
type completion struct {
	at, jobs, lat int64
}

// A timed pass is cut into windows of time for its rate and into groups
// of samples for its percentiles, and the run reports the median window
// and the median over the quieter groups (quietHalf). The host this benchmark runs on is shared: the
// hypervisor steals CPU time in bursts, and /proc/stat counts it, per
// CPU. The workloads keep every CPU busy, so a window in which a share s
// of the machine's CPU time was stolen completes (1−s) of its work, and
// its rate is divided by (1−s). A request is charged differently: a
// thread on a CPU the hypervisor took away stalls and cannot move, so a
// request caught there loses that CPU's stolen time whole, while the
// machine's share understates it by the number of CPUs. The benchmark
// cannot see which CPU served a request, so each latency sample is
// reduced by the time stolen during its flight from the CPU that lost
// the most. Both corrections charge the program for the CPU time it got,
// not for the time the host took away; uncorrected whole-run figures are
// printed beside them.
const windows = 10

// maxGroups caps the latency groups. Stream-journal's tail is made of
// stalls that each delay dozens of arrivals at once, so its quantiles
// need groups short enough in time that some escape the host's steal:
// forty groups of 10k arrivals each, about 0.2 s apiece.
const maxGroups = 40

// stolenFunc returns the share of CPU time the host stole between two
// offsets (ns) of a pass.
type stolenFunc func(from, to int64) float64

// stallFunc returns the time (ns) the host stole between two offsets of
// a pass from the CPU it took the most from.
type stallFunc func(from, to int64) int64

// maxStolen caps both corrections: a window or flight that lost more
// than this share is charged as if it had lost this much.
const maxStolen = 0.5

func granted(stolen stolenFunc, from, to int64) float64 {
	if stolen == nil {
		return 1
	}
	return 1 - min(stolen(from, to), maxStolen)
}

// unstalled returns a completion's latency less the time stolen from
// under it, at most maxStolen of it.
func unstalled(c completion, stall stallFunc) int64 {
	if stall == nil {
		return c.lat
	}
	return c.lat - min(stall(c.at-c.lat, c.at), int64(maxStolen*float64(c.lat)))
}

// scaled returns xs multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// windowOf returns the time window of a completion at ns into a pass of
// wall ns.
func windowOf(at, wall int64) int {
	return min(int(at*windows/wall), windows-1)
}

// windowBounds returns the offsets window w of a pass of wall ns spans.
func windowBounds(w int, wall int64) (int64, int64) {
	return int64(w) * wall / windows, int64(w+1) * wall / windows
}

// windowRates returns the jobs completed per second of granted CPU time
// in each of the equal time windows of [0, wall).
func windowRates(done []completion, wall int64, stolen stolenFunc) []float64 {
	if wall <= 0 {
		return nil
	}
	jobs := make([]float64, windows)
	for _, c := range done {
		jobs[windowOf(c.at, wall)] += float64(c.jobs)
	}
	for w := range jobs {
		from, to := windowBounds(w, wall)
		jobs[w] /= float64(to-from) / 1e9 * granted(stolen, from, to)
	}
	return jobs
}

// groupLatencies cuts the samples, in completion order, into as many
// consecutive groups as hold at least per samples each (at most
// maxGroups) and returns each group's nearest-rank p-quantile of the
// unstalled latencies, and the share of CPU time the host stole while
// the group was in flight. ok is false unless every group supports p
// with minTail samples beyond it.
func groupLatencies(done []completion, p float64, per int, stall stallFunc, stolen stolenFunc) (vals, shares []float64, ok bool) {
	groups := min(len(done)/per, maxGroups)
	if groups < 1 {
		return nil, nil, false
	}
	ok = true
	for g := 0; g < groups; g++ {
		lo, hi := g*len(done)/groups, (g+1)*len(done)/groups
		lat := make([]int64, 0, hi-lo)
		first := done[lo].at - done[lo].lat
		for _, c := range done[lo:hi] {
			lat = append(lat, unstalled(c, stall))
			first = min(first, c.at-c.lat)
		}
		q, qok := percentile(sortedCopy(lat), p)
		ok = ok && qok
		vals = append(vals, float64(q))
		shares = append(shares, 1-granted(stolen, first, done[hi-1].at))
	}
	return vals, shares, ok
}

// quietHalf returns, in group order, the values of the groups in which
// the host stole no more CPU time than in the quieter half of them
// (rounded up); groups tied at that share are all kept, so a run the
// host left alone keeps every group. Steal bursts shorter than a
// /proc/stat tick cannot be charged to the requests they stalled, and a
// tail quantile is made of few requests, so the latency quantiles are
// taken where the host disturbed least.
func quietHalf(vals, shares []float64) []float64 {
	if len(vals) == 0 {
		return nil
	}
	sorted := append([]float64(nil), shares...)
	sort.Float64s(sorted)
	limit := sorted[(len(sorted)-1)/2]
	var out []float64
	for i, v := range vals {
		if shares[i] <= limit {
			out = append(out, v)
		}
	}
	return out
}

// span is one recorded call: a name, its interval in nanoseconds since
// the recorder's origin, its parent (-1 for a root) and the request it
// served.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's self time: its duration minus the union
// of its children's intervals, clipped to the span. Overlapping children
// (the parallel items under a SolveBatch call) are subtracted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[i] = (s.End - s.Start) - unionLen(ivs)
	}
	return self
}

// unionLen returns the total length covered by the intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// rollup sums, per span name, the call count, total duration and self
// time.
type rollupRow struct {
	Calls   int64
	TotalNS int64
	SelfNS  int64
}

func rollup(spans []span) map[string]*rollupRow {
	self := selfTimes(spans)
	out := map[string]*rollupRow{}
	for i, s := range spans {
		row := out[s.Name]
		if row == nil {
			row = &rollupRow{}
			out[s.Name] = row
		}
		row.Calls++
		row.TotalNS += s.End - s.Start
		row.SelfNS += self[i]
	}
	return out
}
