// Package interval implements arithmetic on half-open integer time
// intervals [Start, End) and on finite sets of such intervals.
//
// It is the foundational substrate for the busy-time scheduling library:
// jobs are intervals, a machine's busy time is the measure (span) of the
// union of its jobs' intervals, and the paper's cost accounting (length,
// span, overlap) is exactly the algebra provided here.
//
// Times are int64 ticks. Working on an integer lattice loses no generality:
// Proposition 2.2 of the paper rescales any rational input to integers, and
// all constructions in this repository (including the ε′-perturbed
// adversarial family of Figure 3) pick a tick scale fine enough to be exact.
package interval

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Interval is the half-open interval [Start, End). An interval with
// End <= Start is empty. Half-openness matches the paper's convention that
// a job is not being processed at its completion time: [1,2) and [2,3) do
// not overlap and may share a machine thread.
type Interval struct {
	Start int64
	End   int64
}

// New returns the interval [start, end). It panics if end < start, which is
// always a programming error in this codebase (generators and parsers
// validate their inputs before constructing intervals).
func New(start, end int64) Interval {
	if end < start {
		panic(fmt.Sprintf("interval: New(%d, %d): end < start", start, end))
	}
	return Interval{Start: start, End: end}
}

// Len returns the length (measure) of the interval, 0 if empty.
func (iv Interval) Len() int64 {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// Empty reports whether the interval has zero measure.
func (iv Interval) Empty() bool { return iv.End <= iv.Start }

// Overlaps reports whether the intersection of iv and other has positive
// measure. Touching endpoints ([1,2) and [2,3)) do not overlap, matching
// the paper's Definition 2.2 ("intersection contains more than one point").
func (iv Interval) Overlaps(other Interval) bool {
	return max64(iv.Start, other.Start) < min64(iv.End, other.End)
}

// Intersect returns the intersection of iv and other. The result is empty
// (Len() == 0) when they do not overlap.
func (iv Interval) Intersect(other Interval) Interval {
	s := max64(iv.Start, other.Start)
	e := min64(iv.End, other.End)
	if e < s {
		e = s
	}
	return Interval{Start: s, End: e}
}

// OverlapLen returns the measure of the intersection of iv and other.
func (iv Interval) OverlapLen(other Interval) int64 {
	return iv.Intersect(other).Len()
}

// Contains reports whether other lies entirely within iv (not necessarily
// properly).
func (iv Interval) Contains(other Interval) bool {
	return iv.Start <= other.Start && other.End <= iv.End
}

// ProperlyContains reports whether iv contains other and they differ on at
// least one endpoint. This is the containment relation that defines proper
// instances: a set of jobs is proper iff no job properly contains another.
func (iv Interval) ProperlyContains(other Interval) bool {
	return iv.Contains(other) && (iv.Start < other.Start || other.End < iv.End)
}

// ContainsTime reports whether the time t lies in [Start, End).
func (iv Interval) ContainsTime(t int64) bool {
	return iv.Start <= t && t < iv.End
}

// Hull returns the smallest interval containing both iv and other.
func (iv Interval) Hull(other Interval) Interval {
	if iv.Empty() {
		return other
	}
	if other.Empty() {
		return iv
	}
	return Interval{Start: min64(iv.Start, other.Start), End: max64(iv.End, other.End)}
}

// String renders the interval as "[s,e)".
func (iv Interval) String() string {
	return fmt.Sprintf("[%d,%d)", iv.Start, iv.End)
}

// Extend is one step of a busy-period sweep over intervals in start
// order (each start at or after every earlier one): it returns the
// measure iv adds to the union of the earlier intervals, whose right
// edge is *end, and moves *end to the right edge of the grown union.
// *end starts at math.MinInt64, the edge of the empty union. Empty
// intervals add nothing.
func Extend(end *int64, iv Interval) int64 {
	switch {
	case iv.Empty():
		return 0
	case iv.Start >= *end:
		*end = iv.End
		return iv.Len()
	case iv.End > *end:
		added := iv.End - *end
		*end = iv.End
		return added
	}
	return 0
}

// Span returns span(I): the measure of the union of the intervals
// (Definition 2.2). It runs in O(n log n).
func Span(ivs []Interval) int64 {
	var total int64
	for _, u := range Union(ivs) {
		total += u.Len()
	}
	return total
}

// Union returns SPAN(I) decomposed into maximal disjoint non-empty
// intervals, sorted by start time. Two intervals that merely touch
// ([1,2) and [2,3)) are merged, since their union is one contiguous busy
// period.
func Union(ivs []Interval) []Interval {
	nonEmpty := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.Empty() {
			nonEmpty = append(nonEmpty, iv)
		}
	}
	if len(nonEmpty) == 0 {
		return nil
	}
	sort.Slice(nonEmpty, func(i, j int) bool {
		if nonEmpty[i].Start != nonEmpty[j].Start {
			return nonEmpty[i].Start < nonEmpty[j].Start
		}
		return nonEmpty[i].End < nonEmpty[j].End
	})
	out := make([]Interval, 0, len(nonEmpty))
	cur := nonEmpty[0]
	for _, iv := range nonEmpty[1:] {
		if iv.Start <= cur.End { // touching or overlapping: extend
			if iv.End > cur.End {
				cur.End = iv.End
			}
			continue
		}
		out = append(out, cur)
		cur = iv
	}
	return append(out, cur)
}

// Hull returns the smallest interval containing every interval in ivs, or
// an empty interval when ivs has no non-empty member.
func Hull(ivs []Interval) Interval {
	var h Interval
	first := true
	for _, iv := range ivs {
		if iv.Empty() {
			continue
		}
		if first {
			h, first = iv, false
			continue
		}
		h = h.Hull(iv)
	}
	return h
}

// CommonTime returns a time contained in every interval of ivs and true,
// or 0 and false when no such time exists. By Helly's theorem on the line,
// a common time exists iff max Start < min End; that time witnesses that
// the intervals form a clique set.
func CommonTime(ivs []Interval) (int64, bool) {
	if len(ivs) == 0 {
		return 0, false
	}
	maxStart := ivs[0].Start
	minEnd := ivs[0].End
	for _, iv := range ivs[1:] {
		maxStart = max64(maxStart, iv.Start)
		minEnd = min64(minEnd, iv.End)
	}
	if maxStart < minEnd {
		return maxStart, true
	}
	return 0, false
}

// MaxConcurrency returns the maximum number of intervals of ivs that are
// simultaneously active at any time. It is the quantity a capacity-g
// machine bounds by g. Runs in O(n log n) by an event sweep.
func MaxConcurrency(ivs []Interval) int {
	peak, _ := Sweep(Events(ivs, nil), nil)
	return int(peak)
}

// WeightedMaxConcurrency is MaxConcurrency with a per-interval weight
// (capacity demand): it returns the maximum, over all times, of the sum of
// weights of active intervals. weights[i] is the demand of ivs[i].
func WeightedMaxConcurrency(ivs []Interval, weights []int64) int64 {
	if len(weights) != len(ivs) {
		panic("interval: WeightedMaxConcurrency: len(weights) != len(ivs)")
	}
	peak, _ := Sweep(Events(ivs, weights), nil)
	return peak
}

// Event is one end of an interval in a load sweep: at time T the load
// changes by Delta, the interval's weight at its start and minus it at
// its end. Index is the interval's position in the slice Events read.
type Event struct {
	T, Delta int64
	Index    int
}

// Events returns the start and end events of the non-empty intervals of
// ivs in sweep order: by time, and at equal times by Delta, so every end
// comes before every start and [1,2), [2,3) are never active together.
// weights[i] is the weight of ivs[i]; nil weights are all 1.
func Events(ivs []Interval, weights []int64) []Event {
	events := make([]Event, 0, 2*len(ivs))
	for i, iv := range ivs {
		if iv.Empty() {
			continue
		}
		w := int64(1)
		if weights != nil {
			w = weights[i]
		}
		events = append(events, Event{iv.Start, w, i}, Event{iv.End, -w, i})
	}
	slices.SortFunc(events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.Delta, b.Delta))
	})
	return events
}

// Sweep passes once over events in the order Events returns them,
// skipping the events of every interval keep rejects (nil keeps all). It
// returns the peak load and the measure of the time the load is
// positive, which for positive weights is the span of the kept
// intervals. A sorted event list is reusable: one Events call serves a
// Sweep per subset of the intervals.
func Sweep(events []Event, keep func(i int) bool) (peak, span int64) {
	var load, prev int64
	for _, ev := range events {
		if keep != nil && !keep(ev.Index) {
			continue
		}
		if load > 0 {
			span += ev.T - prev
		}
		prev = ev.T
		load += ev.Delta
		peak = max(peak, load)
	}
	return peak, span
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
