// Package igraph builds the interval graph of a job set, splits
// instances into its connected components and classifies instances into
// the special classes the paper's algorithms target.
//
// The interval graph has one vertex per job and an edge between jobs whose
// processing intervals overlap (Section 1). The classes recognized here
// drive algorithm selection:
//
//   - clique instances: all jobs share a common time;
//   - proper instances: no job properly contains another;
//   - one-sided instances: cliques where all start times or all completion
//     times coincide (Section 2, "Special cases").
package igraph

import (
	"sort"

	"repro/internal/interval"
	"repro/internal/job"
)

// Graph is the interval graph of an instance. Adjacency is stored as
// sorted neighbor lists indexed by job position (not job ID).
type Graph struct {
	jobs []job.Job
	adj  [][]int
}

// Build constructs the interval graph in O(n log n + m) time using a
// sweep over start-sorted jobs. The solve path does not build it:
// SplitComponents finds the components without edges.
func Build(jobs []job.Job) *Graph {
	n := len(jobs)
	g := &Graph{jobs: append([]job.Job(nil), jobs...), adj: make([][]int, n)}

	// active holds the jobs that may still overlap a later start. Each
	// step keeps those that end after the current start (half-open: one
	// ending exactly there does not overlap it) and appends the current
	// job.
	var active []int
	for _, idx := range job.ByStart(jobs) {
		cur := jobs[idx]
		keep := active[:0]
		for _, other := range active {
			if jobs[other].End() > cur.Start() {
				keep = append(keep, other)
				g.adj[idx] = append(g.adj[idx], other)
				g.adj[other] = append(g.adj[other], idx)
			}
		}
		active = append(keep, idx)
	}
	for i := range g.adj {
		sort.Ints(g.adj[i])
	}
	return g
}

// N returns the number of vertices (jobs).
func (g *Graph) N() int { return len(g.jobs) }

// Neighbors returns the sorted adjacency list of vertex i.
func (g *Graph) Neighbors(i int) []int { return g.adj[i] }

// Degree returns the number of jobs overlapping job i.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// Edges returns the number of edges.
func (g *Graph) Edges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// OverlapWeight returns the overlap length between jobs i and j — the edge
// weight of the graph G_m used by the g=2 matching algorithm (Lemma 3.1).
func (g *Graph) OverlapWeight(i, j int) int64 {
	return g.jobs[i].Interval.OverlapLen(g.jobs[j].Interval)
}

// SplitComponents partitions an instance into one sub-instance per
// connected component of its interval graph, preserving job IDs and G.
// Components come in order of their smallest job position, each with
// its jobs in increasing position. MinBusy decomposes over components
// (Section 2), so solvers split instances along this partition.
func SplitComponents(in job.Instance) []job.Instance {
	comps, _, _ := SplitComponentsByStart(in, job.ByStart(in.Jobs))
	return comps
}

// SplitComponentsByStart is SplitComponents for a caller that holds
// ByStart(in.Jobs). It also returns each component's ByStart order, in
// the component's own positions, so no component needs a sort, and the
// positions in in of each component's jobs, in increasing order, so a
// merge of per-component schedules needs no lookup by ID.
//
// No edges are needed. Sorted by start, the jobs of one component form a
// run in which every start falls before the largest end seen so far, so
// one sweep over the start order cuts the runs: O(n) time after the
// sort and a constant number of allocations. Intervals are half-open,
// as in Build: a job starting exactly at the largest end seen so far
// opens a new component, so [0,10) and [10,20) stay apart. Jobs must be
// non-empty, as Instance.Validate requires. The sub-instances' job
// slices are disjoint, capacity-capped blocks of one array, and so are
// the orders and the positions.
func SplitComponentsByStart(in job.Instance, order []int) (comps []job.Instance, orders, positions [][]int) {
	jobs := in.Jobs

	// run[p] is the index, in start order, of the run holding position p.
	run := make([]int, len(jobs))
	runs := 0
	var reach int64 // the largest end seen so far
	for _, p := range order {
		if runs == 0 || jobs[p].Start() >= reach {
			runs++
			reach = jobs[p].End()
		} else {
			reach = max(reach, jobs[p].End())
		}
		run[p] = runs - 1
	}

	// Each run gets a block of one shared slice, claimed when its
	// smallest position comes up; filling the blocks in position order
	// keeps every component's jobs in increasing position. The orders
	// and the positions take the same blocks of two more slices.
	size := make([]int, runs)
	for _, r := range run {
		size[r]++
	}
	base := make([]int, runs) // the run's block start; -1 until claimed
	for r := range base {
		base[r] = -1
	}
	next := make([]int, runs)       // the run's next free slot
	local := make([]int, len(jobs)) // p's position in its component
	all := make([]job.Job, len(jobs))
	ords := make([]int, len(jobs))
	pos := make([]int, len(jobs))
	comps = make([]job.Instance, 0, runs)
	orders = make([][]int, 0, runs)
	positions = make([][]int, 0, runs)
	claimed := 0
	for p, r := range run {
		if base[r] < 0 {
			lo, hi := claimed, claimed+size[r]
			comps = append(comps, job.Instance{Jobs: all[lo:hi:hi], G: in.G})
			orders = append(orders, ords[lo:hi:hi])
			positions = append(positions, pos[lo:hi:hi])
			base[r], next[r], claimed = lo, lo, hi
		}
		local[p] = next[r] - base[r]
		all[next[r]], pos[next[r]] = jobs[p], p
		next[r]++
	}
	// A component's order is its run's segment of the start order, in
	// local positions: local positions keep the order of the instance's,
	// so ByStart's position tie-break is unchanged.
	copy(next, base)
	for _, p := range order {
		r := run[p]
		ords[next[r]] = local[p]
		next[r]++
	}
	return comps, orders, positions
}

// IsClique reports whether the jobs form a clique set: some time is common
// to all jobs. On the line this holds iff max start < min end.
func IsClique(jobs []job.Job) bool {
	if len(jobs) == 0 {
		return true
	}
	_, ok := interval.CommonTime(job.Instance{Jobs: jobs}.Intervals())
	return ok
}

// CommonTime returns a witness time shared by all jobs of a clique set.
func CommonTime(jobs []job.Job) (int64, bool) {
	return interval.CommonTime(job.Instance{Jobs: jobs}.Intervals())
}

// IsProper reports whether no job's interval properly contains another's.
// Equivalently, sorting by start also sorts by end (Property 3.1).
func IsProper(jobs []job.Job) bool { return IsProperByStart(jobs, job.ByStart(jobs)) }

// IsProperByStart is IsProper for a caller that holds ByStart(jobs): one
// pass over adjacent jobs of that order.
func IsProperByStart(jobs []job.Job, order []int) bool {
	for k := 1; k < len(order); k++ {
		prev, cur := jobs[order[k-1]], jobs[order[k]]
		// prev.Start <= cur.Start; containment iff cur.End <= prev.End and
		// the intervals differ.
		if prev.Interval.ProperlyContains(cur.Interval) || cur.Interval.ProperlyContains(prev.Interval) {
			return false
		}
	}
	return true
}

// IsProperClique reports whether the set is both proper and a clique.
func IsProperClique(jobs []job.Job) bool { return IsClique(jobs) && IsProper(jobs) }

// OneSided describes which side of a one-sided clique instance coincides.
type OneSided int

const (
	// NotOneSided means the instance is not one-sided.
	NotOneSided OneSided = iota
	// SharedStart means all jobs begin at the same time.
	SharedStart
	// SharedEnd means all jobs complete at the same time.
	SharedEnd
)

// OneSidedness classifies a job set as a one-sided clique instance. A set
// with all starts equal (or all ends equal) is automatically a clique.
func OneSidedness(jobs []job.Job) OneSided {
	if len(jobs) == 0 {
		return SharedStart
	}
	sameStart, sameEnd := true, true
	for _, j := range jobs[1:] {
		if j.Start() != jobs[0].Start() {
			sameStart = false
		}
		if j.End() != jobs[0].End() {
			sameEnd = false
		}
	}
	switch {
	case sameStart:
		return SharedStart
	case sameEnd:
		return SharedEnd
	default:
		return NotOneSided
	}
}

// Class is the most specific instance class, used for algorithm dispatch
// and reporting.
type Class int

const (
	// General: no special structure detected.
	General Class = iota
	// Proper: no proper containment, not a clique.
	Proper
	// Clique: common time, but containment exists.
	Clique
	// ProperClique: both proper and clique, not one-sided.
	ProperClique
	// OneSidedClique: clique with shared start or shared end.
	OneSidedClique
)

// String names the class for reports.
func (c Class) String() string {
	switch c {
	case Proper:
		return "proper"
	case Clique:
		return "clique"
	case ProperClique:
		return "proper-clique"
	case OneSidedClique:
		return "one-sided-clique"
	default:
		return "general"
	}
}

// Classify returns the most specific class of the job set.
func Classify(jobs []job.Job) Class { return ClassifyByStart(jobs, job.ByStart(jobs)) }

// ClassifyByStart is Classify for a caller that holds ByStart(jobs); it
// sorts nothing.
func ClassifyByStart(jobs []job.Job, order []int) Class {
	clique := IsClique(jobs)
	proper := IsProperByStart(jobs, order)
	switch {
	case clique && OneSidedness(jobs) != NotOneSided:
		return OneSidedClique
	case clique && proper:
		return ProperClique
	case clique:
		return Clique
	case proper:
		return Proper
	default:
		return General
	}
}
