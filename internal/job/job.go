// Package job defines the job and instance types shared by every layer of
// the busy-time scheduling library.
//
// A job is an interval on the time line during which it must be processed
// from start to end (Section 1 of the paper). The optional Weight field
// supports the weighted-throughput extension of Section 5, and the optional
// Demand field supports the variable-capacity extension of [16]; both
// default to 1 and are ignored by the core algorithms.
package job

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/interval"
	"repro/internal/rect"
	"repro/internal/wirejson"
)

// Job is a unit-demand interval job. ID is the job's index within its
// instance; algorithms report schedules keyed by ID.
type Job struct {
	ID       int
	Interval interval.Interval
	Weight   int64 // throughput weight (>= 1); 1 for the unweighted problems
	Demand   int64 // capacity demand (1 <= Demand <= g); 1 for the core model
}

// New returns a unit-weight unit-demand job with the given id and interval
// [start, end).
func New(id int, start, end int64) Job {
	return Job{ID: id, Interval: interval.New(start, end), Weight: 1, Demand: 1}
}

// Start returns the job's start time s_J.
func (j Job) Start() int64 { return j.Interval.Start }

// End returns the job's completion time c_J.
func (j Job) End() int64 { return j.Interval.End }

// Len returns the processing length of the job.
func (j Job) Len() int64 { return j.Interval.Len() }

// Overlaps reports whether the two jobs' processing intervals overlap with
// positive measure, i.e. whether they conflict on a single machine thread.
func (j Job) Overlaps(other Job) bool { return j.Interval.Overlaps(other.Interval) }

// String renders the job as "J<id>[s,c)".
func (j Job) String() string { return fmt.Sprintf("J%d%v", j.ID, j.Interval) }

// Instance is a MinBusy input (J, g). A MaxThroughput input additionally
// carries a budget T, passed separately to the throughput algorithms.
type Instance struct {
	Jobs []Job
	G    int
}

// NewInstance builds an instance from (start, end) pairs, assigning IDs in
// order. It is the convenience constructor used by tests and examples.
func NewInstance(g int, spans ...[2]int64) Instance {
	jobs := make([]Job, len(spans))
	for i, s := range spans {
		jobs[i] = New(i, s[0], s[1])
	}
	return Instance{Jobs: jobs, G: g}
}

// Validate reports the first structural problem with the instance: empty
// jobs, non-positive capacity, duplicate or out-of-range IDs, or invalid
// weights/demands.
func (in Instance) Validate() error {
	if in.G < 1 {
		return fmt.Errorf("job: capacity g = %d, need g >= 1", in.G)
	}
	// While IDs strictly increase none can repeat, so no set is needed;
	// from the first ID that does not exceed its predecessor on, the IDs
	// go into a map. Either way the first error in job order is reported.
	var seen map[int]bool
	for i, j := range in.Jobs {
		if j.Interval.Empty() {
			return fmt.Errorf("job: job %d has empty interval %v", i, j.Interval)
		}
		if seen == nil && i > 0 && j.ID <= in.Jobs[i-1].ID {
			seen = make(map[int]bool, len(in.Jobs))
			for _, prev := range in.Jobs[:i] {
				seen[prev.ID] = true
			}
		}
		if seen != nil {
			if seen[j.ID] {
				return fmt.Errorf("job: duplicate job ID %d", j.ID)
			}
			seen[j.ID] = true
		}
		if j.Weight < 1 {
			return fmt.Errorf("job: job %d has weight %d, need >= 1", j.ID, j.Weight)
		}
		if j.Demand < 1 || j.Demand > int64(in.G) {
			return fmt.Errorf("job: job %d has demand %d outside [1, g=%d]", j.ID, j.Demand, in.G)
		}
	}
	return nil
}

// Intervals returns the jobs' intervals in instance order.
func (in Instance) Intervals() []interval.Interval {
	ivs := make([]interval.Interval, len(in.Jobs))
	for i, j := range in.Jobs {
		ivs[i] = j.Interval
	}
	return ivs
}

// TotalLen returns len(J), the sum of job lengths.
func (in Instance) TotalLen() int64 {
	var total int64
	for _, j := range in.Jobs {
		total += j.Len()
	}
	return total
}

// Span returns span(J), the measure of the union of all job intervals.
func (in Instance) Span() int64 { return SpanByStart(in.Jobs, ByStart(in.Jobs)) }

// ParallelismBound returns ceil(len(J)/g), the paper's parallelism lower
// bound rounded up to the integer lattice (costs are integral on integral
// instances, so rounding up keeps the bound valid).
func (in Instance) ParallelismBound() int64 {
	l := in.TotalLen()
	g := int64(in.G)
	return (l + g - 1) / g
}

// LowerBound returns max(parallelism bound, span bound) — the best simple
// lower bound on cost* from Observation 2.1.
func (in Instance) LowerBound() int64 { return in.LowerBoundByStart(ByStart(in.Jobs)) }

// LowerBoundByStart is LowerBound for a caller that holds the jobs'
// ByStart order: it takes the span from that order and sorts nothing.
// It is the one offline form of Observation 2.1; online.RatioTracker
// keeps the same bound incrementally over a stream's admitted arrivals.
func (in Instance) LowerBoundByStart(order []int) int64 {
	return max(in.ParallelismBound(), SpanByStart(in.Jobs, order))
}

// Clone returns a deep copy of the instance.
func (in Instance) Clone() Instance {
	jobs := make([]Job, len(in.Jobs))
	copy(jobs, in.Jobs)
	return Instance{Jobs: jobs, G: in.G}
}

// SortedByStart returns a copy of the instance with its jobs in ByStart
// order.
func (in Instance) SortedByStart() Instance {
	out := Instance{Jobs: make([]Job, len(in.Jobs)), G: in.G}
	for k, p := range ByStart(in.Jobs) {
		out.Jobs[k] = in.Jobs[p]
	}
	return out
}

// ByStart returns the positions of jobs in the paper's order
// J1 <= J2 <= ... <= Jn: by start, then end, then position. By Property
// 3.1 an instance is proper exactly when this order also sorts its jobs
// by end. Every algorithm that walks jobs by start uses this order, and
// a served request computes it once and hands it to every pass that
// needs it (the functions named ...ByStart).
func ByStart(jobs []Job) []int {
	order := positions(len(jobs))
	slices.SortFunc(order, func(a, b int) int { return compareByStart(jobs, a, b) })
	return order
}

// compareByStart is ByStart's total order on the positions of jobs. It
// compares ends only on equal starts, and positions only on equal
// intervals; cmp.Or would evaluate all three comparisons on every call.
func compareByStart(jobs []Job, a, b int) int {
	ja, jb := &jobs[a].Interval, &jobs[b].Interval
	switch {
	case ja.Start != jb.Start:
		return cmp.Compare(ja.Start, jb.Start)
	case ja.End != jb.End:
		return cmp.Compare(ja.End, jb.End)
	}
	return cmp.Compare(a, b)
}

// IsByStart reports whether order is ByStart(jobs), in O(n) and without
// allocating: it has one entry per job, every entry is a position, and
// each entry comes strictly before the next in ByStart's order. Strict
// increase under a total order makes the entries distinct, so order is
// a permutation. A holder of an order from elsewhere checks it with
// IsByStart before a pass relies on it.
func IsByStart(jobs []Job, order []int) bool {
	if len(order) != len(jobs) {
		return false
	}
	for k, p := range order {
		if p < 0 || p >= len(jobs) || k > 0 && compareByStart(jobs, order[k-1], p) >= 0 {
			return false
		}
	}
	return true
}

// SpanByStart returns the measure of the union of the intervals of the
// jobs at the positions order lists, which must come in ByStart order
// (ByStart(jobs) or any sub-slice of it): one pass of interval.Extend,
// no sort.
func SpanByStart(jobs []Job, order []int) int64 {
	var total int64
	end := int64(math.MinInt64)
	for _, p := range order {
		total += interval.Extend(&end, jobs[p].Interval)
	}
	return total
}

// ByLenDesc returns the positions of jobs by non-increasing length, then
// position: the order in which the paper's FirstFit places jobs. An
// interval longer than math.MaxInt64 has a wrapped, negative Len, so it
// comes last.
//
// It is a stable LSD radix sort of (lenDescKey, position) pairs, one
// counting pass per byte in which the lengths differ, so lengths below
// 2^8 take one pass and below 2^16 at most two. Equal lengths, a single
// job among them, take none and allocate only the result. The last pass
// writes the positions straight into the result, so a sort of one pass
// allocates only the pairs besides.
func ByLenDesc(jobs []Job) []int {
	var differ uint64 // the bits in which some length, so its key, differs from the first
	for _, j := range jobs {
		differ |= uint64(j.Len() ^ jobs[0].Len())
	}
	if differ == 0 {
		return positions(len(jobs))
	}
	n := len(jobs)
	order := make([]int, n)
	cur := make([]keyedPos, n)
	for i := range jobs {
		cur[i] = keyedPos{lenDescKey(jobs[i].Len()), i}
	}
	var next []keyedPos
	last := (bits.Len64(differ) - 1) / 8 * 8 // the shift of the highest differing byte
	for shift := 0; shift <= last; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		var at [256]int // each digit's count, then its next slot
		for _, e := range cur {
			at[byte(e.key>>shift)]++
		}
		sum := 0
		for d, c := range at {
			at[d] = sum
			sum += c
		}
		if shift == last {
			for _, e := range cur {
				d := byte(e.key >> shift)
				order[at[d]] = e.pos
				at[d]++
			}
			break
		}
		if next == nil {
			next = make([]keyedPos, n)
		}
		for _, e := range cur {
			d := byte(e.key >> shift)
			next[at[d]] = e
			at[d]++
		}
		cur, next = next, cur
	}
	return order
}

// keyedPos is a job's position and its sort key.
type keyedPos struct {
	key uint64
	pos int
}

// lenDescKey maps a length to a key whose unsigned order is the lengths'
// non-increasing signed order: the sign flip makes the order unsigned,
// and the complement reverses it.
func lenDescKey(l int64) uint64 { return uint64(l) ^ math.MaxInt64 }

// positions returns 0, 1, ..., n-1.
func positions(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// jsonInstance is the stable on-disk representation used by cmd/busysim.
type jsonInstance struct {
	G    int       `json:"g"`
	Jobs []jsonJob `json:"jobs"`
}

type jsonJob struct {
	ID     int   `json:"id"`
	Start  int64 `json:"start"`
	End    int64 `json:"end"`
	Weight int64 `json:"weight,omitempty"`
	Demand int64 `json:"demand,omitempty"`
}

// MarshalJSON encodes the instance in the CLI interchange format.
func (in Instance) MarshalJSON() ([]byte, error) {
	enc := jsonInstance{G: in.G, Jobs: make([]jsonJob, len(in.Jobs))}
	for i, j := range in.Jobs {
		enc.Jobs[i] = jsonJob{ID: j.ID, Start: j.Start(), End: j.End(), Weight: j.Weight, Demand: j.Demand}
	}
	return json.Marshal(enc)
}

// UnmarshalJSON decodes the CLI interchange format, defaulting weight and
// demand to 1 when omitted. Input in the canonical subset of the format
// (see ScanInstance) is decoded in one pass; anything else, and every
// input that fails a check, goes through encoding/json.
func (in *Instance) UnmarshalJSON(data []byte) error {
	sc := wirejson.New(data)
	if fast := ScanInstance(&sc); sc.End() {
		*in = fast
		return nil
	}
	return in.unmarshalStd(data)
}

// unmarshalStd is the encoding/json decode of the interchange format:
// the reference ScanInstance must agree with wherever it accepts.
func (in *Instance) unmarshalStd(data []byte) error {
	var dec jsonInstance
	if err := json.Unmarshal(data, &dec); err != nil {
		return err
	}
	if dec.G < 1 {
		return errors.New("job: instance JSON missing positive g")
	}
	in.G = dec.G
	in.Jobs = make([]Job, len(dec.Jobs))
	for i, j := range dec.Jobs {
		if j.End < j.Start {
			return fmt.Errorf("job: job %d has end %d < start %d", j.ID, j.End, j.Start)
		}
		w, d := j.Weight, j.Demand
		if w == 0 {
			w = 1
		}
		if d == 0 {
			d = 1
		}
		in.Jobs[i] = Job{ID: j.ID, Interval: interval.Interval{Start: j.Start, End: j.End}, Weight: w, Demand: d}
	}
	return in.Validate()
}

// ScanInstance reads one instance object of the interchange format from
// sc in a single pass, with the checks UnmarshalJSON applies. It reads
// only the canonical subset: keys exactly "g" and "jobs", and per job
// "id", "start", "end", "weight" and "demand", each at most once, with
// integer values (wirejson's rules). On anything else — another key,
// null, a float, an overflow — and on an instance UnmarshalJSON would
// reject, it fails sc, and the caller decodes the bytes with
// encoding/json instead, which then reports the error.
func ScanInstance(sc *wirejson.Scanner) Instance {
	var in Instance
	var seen uint64
	sc.Open('{')
	for i := 0; sc.Next('}', i); i++ {
		switch sc.Field(instanceKeys, &seen) {
		case 0:
			in.G = sc.Int()
		case 1:
			in.Jobs = scanJobs(sc)
		}
	}
	if in.Jobs == nil {
		in.Jobs = []Job{}
	}
	// Validate also rejects what UnmarshalJSON checks before it: g < 1
	// and end < start (an empty interval).
	if sc.Failed() || in.Validate() != nil {
		sc.Fail()
		return Instance{}
	}
	return in
}

// The keys ScanInstance reads, in the order MarshalJSON writes them.
var (
	instanceKeys = []string{"g", "jobs"}
	jobKeys      = []string{"id", "start", "end", "weight", "demand"}
)

// scanJobs reads the "jobs" array for ScanInstance, into a slice sized
// by the objects the array appears to hold, counting at most one per
// ten bytes: {"end":1} and a comma, the shortest job that validates.
func scanJobs(sc *wirejson.Scanner) []Job {
	sc.Open('[')
	jobs := make([]Job, 0, sc.Objects(len(`{"end":1}`)))
	for i := 0; sc.Next(']', i); i++ {
		var (
			seen             uint64
			id               int
			start, end, w, d int64
		)
		sc.Open('{')
		for k := 0; sc.Next('}', k); k++ {
			switch sc.Field(jobKeys, &seen) {
			case 0:
				id = sc.Int()
			case 1:
				start = sc.Int64()
			case 2:
				end = sc.Int64()
			case 3:
				w = sc.Int64()
			case 4:
				d = sc.Int64()
			}
		}
		if w == 0 {
			w = 1
		}
		if d == 0 {
			d = 1
		}
		jobs = append(jobs, Job{ID: id, Interval: interval.Interval{Start: start, End: end}, Weight: w, Demand: d})
	}
	return jobs
}

// RectJob is a two-dimensional job (Section 3.4): a rectangle that must be
// processed contiguously in both dimensions.
type RectJob struct {
	ID   int
	Rect rect.Rect
}

// NewRectJob builds a rectangular job [s1,c1) × [s2,c2).
func NewRectJob(id int, s1, c1, s2, c2 int64) RectJob {
	return RectJob{ID: id, Rect: rect.New(s1, c1, s2, c2)}
}

// RectInstance is the 2-D MinBusy input of Section 3.4.
type RectInstance struct {
	Jobs []RectJob
	G    int
}

// Validate reports the first structural problem with the 2-D instance.
func (in RectInstance) Validate() error {
	if in.G < 1 {
		return fmt.Errorf("job: capacity g = %d, need g >= 1", in.G)
	}
	seen := make(map[int]bool, len(in.Jobs))
	for i, j := range in.Jobs {
		if j.Rect.Empty() {
			return fmt.Errorf("job: rect job %d is empty: %v", i, j.Rect)
		}
		if seen[j.ID] {
			return fmt.Errorf("job: duplicate rect job ID %d", j.ID)
		}
		seen[j.ID] = true
	}
	return nil
}

// Rects returns the jobs' rectangles in instance order.
func (in RectInstance) Rects() []rect.Rect {
	rs := make([]rect.Rect, len(in.Jobs))
	for i, j := range in.Jobs {
		rs[i] = j.Rect
	}
	return rs
}

// TotalArea returns the 2-D len(J).
func (in RectInstance) TotalArea() int64 { return rect.TotalArea(in.Rects()) }

// SpanArea returns the 2-D span(J).
func (in RectInstance) SpanArea() int64 { return rect.UnionArea(in.Rects()) }

// LowerBound returns max(ceil(area/g), union area) — Observation 2.1
// carried over to two dimensions (Section 3.4 notes all three bounds hold).
func (in RectInstance) LowerBound() int64 {
	g := int64(in.G)
	pb := (in.TotalArea() + g - 1) / g
	if sp := in.SpanArea(); sp > pb {
		return sp
	}
	return pb
}
