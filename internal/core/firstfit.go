package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/job"
)

// FirstFit is the 1-D first-fit algorithm of Flammini et al. [13], the
// prior-work baseline the paper improves upon: sort jobs by non-increasing
// length and place each on the first thread of the first machine where it
// fits. It is a 4-approximation for general instances and a
// 2-approximation for proper and for clique instances [13].
//
// Machines are scanned in order and a machine's threads in order, and a
// machine opens a thread only when none of its own fits, so every
// machine but the last has g threads. Numbered across machines, the
// threads make the scan first-fit interval colouring: a job takes the
// smallest thread t that no placed job overlapping it holds, on machine
// ⌊t/g⌋. An empty job overlaps nothing but fits no existing thread
// either: it takes the next new thread and holds none of it. A g below
// 1 never lets a machine open a second thread, so it acts as g = 1.
//
// The jobs are indexed once, by length class and start (placedIndex).
// Placing a job costs, in each class that holds a placed job, a bucket
// lookup and a binary search, then a read of the class's jobs that start
// between the job's start less the class's longest length and its end:
// the placed jobs of the class that overlap it, and those in that window
// that end before it starts or are not yet placed. Working memory is
// O(n), and nothing is allocated per job. A clique stays quadratic,
// since every placed job overlaps every later one. The test suite
// checks the assignments against a linear scan of each thread.
func FirstFit(in job.Instance) Schedule {
	s := NewSchedule(in)
	x := newPlacedIndex(in.Jobs)
	threads := 0
	for _, p := range job.ByLenDesc(in.Jobs) {
		t := threads
		if !in.Jobs[p].Interval.Empty() {
			t = x.place(p)
		}
		if t == threads {
			threads++
		}
		s.Assign(p, t/max(in.G, 1))
	}
	return s
}

// placedIndex holds an instance's non-empty jobs for FirstFit in length
// classes: class k holds the jobs whose length, measured unsigned, lies
// in (2^(k−1), 2^k], and class 63 every job longer than 2^62. A job of a
// class whose longest length is L overlaps [a, b) only if it starts in
// [a − L + 1, b), so a query reads that run of the class's start order,
// in every class from the lowest that holds a placed job. Jobs come
// longest first, so that class is never below the job's own, except for
// an interval longer than math.MaxInt64: its Len wraps negative, so it
// comes after every shorter job.
//
// Within a class the jobs are bucketed by start. The bucket width is the
// power of two at or above max(2^k, start range / class size + 1), so
// there are at most as many buckets as jobs, and a bucket lookup is a
// shift. Each bucket keeps its jobs in start order, so a far outlier
// that stretches the start range and crowds one bucket costs a binary
// search rather than a scan.
type placedIndex struct {
	slots   []slot
	slotOf  []int32      // the slot of each non-empty job's position
	classes []startClass // the non-empty classes, by increasing k
	byK     [64]int8     // the index in classes of class k
	lowest  int          // the index of the lowest class that holds a placed job
	used    []uint64     // one query's bitset of the threads that overlap its job
}

// slot is one indexed job: its interval, its position in the instance,
// and its thread once placed.
type slot struct {
	start, end int64
	pos        int32
	thread     int32 // -1 until placed
}

// startClass is one length class: slots[lo:hi] in start order, split
// into buckets, where bucket i is slots[buckets[i]:buckets[i+1]].
type startClass struct {
	lo, hi   int32
	minStart int64
	reach    uint64 // the longest length in the class, less one
	shift    uint   // log2 of the bucket width
	buckets  []int32
}

// classOf returns the length class of a non-empty interval [start, end).
func classOf(start, end int64) int {
	return min(bits.Len64(uint64(end)-uint64(start)-1), 63)
}

func newPlacedIndex(jobs []job.Job) placedIndex {
	var size [64]int32
	var minStart, maxStart [64]int64
	var maxLen [64]uint64
	classes := 0
	for _, j := range jobs {
		if j.Interval.Empty() {
			continue
		}
		k := classOf(j.Start(), j.End())
		if size[k] == 0 {
			classes++
			minStart[k], maxStart[k] = j.Start(), j.Start()
		}
		minStart[k] = min(minStart[k], j.Start())
		maxStart[k] = max(maxStart[k], j.Start())
		maxLen[k] = max(maxLen[k], uint64(j.End())-uint64(j.Start()))
		size[k]++
	}

	// Lay the classes out by increasing k, each with one more bucket
	// bound than it has buckets, so at most one more than it has jobs.
	x := placedIndex{
		slotOf:  make([]int32, len(jobs)),
		classes: make([]startClass, 0, classes),
		used:    make([]uint64, len(jobs)/64+1),
	}
	bounds := make([]int32, len(jobs)+classes)
	var n int32
	for k, c := range size {
		if c == 0 {
			continue
		}
		span := uint64(maxStart[k]) - uint64(minStart[k])
		shift := uint(max(k, bits.Len64(span/uint64(c))))
		nb := int(span>>shift) + 2
		x.byK[k] = int8(len(x.classes))
		x.classes = append(x.classes, startClass{
			lo: n, hi: n + c, minStart: minStart[k], reach: maxLen[k] - 1, shift: shift, buckets: bounds[:nb:nb],
		})
		bounds = bounds[nb:]
		n += c
	}
	x.lowest = len(x.classes)

	// A counting sort into the buckets: count each bucket's jobs into the
	// bound after it, sum the counts into bucket starts, and deal the
	// jobs out. Dealing moves each bucket's start to the next one's, so
	// shift the bounds back before sorting each bucket by start.
	bucketOf := func(j job.Job) (*startClass, uint64) {
		c := &x.classes[x.byK[classOf(j.Start(), j.End())]]
		return c, (uint64(j.Start()) - uint64(c.minStart)) >> c.shift
	}
	for _, j := range jobs {
		if !j.Interval.Empty() {
			c, b := bucketOf(j)
			c.buckets[b+1]++
		}
	}
	for i := range x.classes {
		c := &x.classes[i]
		c.buckets[0] = c.lo
		for b := 1; b < len(c.buckets); b++ {
			c.buckets[b] += c.buckets[b-1]
		}
	}
	x.slots = make([]slot, n)
	for p, j := range jobs {
		if j.Interval.Empty() {
			continue
		}
		c, b := bucketOf(j)
		x.slots[c.buckets[b]] = slot{start: j.Start(), end: j.End(), pos: int32(p), thread: -1}
		c.buckets[b]++
	}
	for i := range x.classes {
		c := &x.classes[i]
		copy(c.buckets[1:], c.buckets)
		c.buckets[0] = c.lo
		for b := 0; b+1 < len(c.buckets); b++ {
			if bucket := x.slots[c.buckets[b]:c.buckets[b+1]]; len(bucket) > 1 {
				slices.SortFunc(bucket, func(p, q slot) int { return cmp.Compare(p.start, q.start) })
			}
		}
	}
	for i, q := range x.slots {
		x.slotOf[q.pos] = int32(i)
	}
	return x
}

// place returns the smallest thread that no placed job overlapping job p
// holds, and records p there.
func (x *placedIndex) place(p int) int {
	me := &x.slots[x.slotOf[p]]
	a, b := me.start, me.end
	top := -1 // the highest word of used that a thread was set in
	for ci := x.lowest; ci < len(x.classes); ci++ {
		c := &x.classes[ci]
		for i := c.first(x.slots, a); i < c.hi && x.slots[i].start < b; i++ {
			if q := &x.slots[i]; q.thread >= 0 && q.end > a {
				w := int(q.thread >> 6)
				x.used[w] |= 1 << (q.thread & 63)
				top = max(top, w)
			}
		}
	}
	t := (top + 1) * 64
	for w, used := range x.used[:top+1] {
		if used != math.MaxUint64 {
			t = w*64 + bits.TrailingZeros64(^used)
			break
		}
	}
	clear(x.used[:top+1])
	me.thread = int32(t)
	x.lowest = min(x.lowest, int(x.byK[classOf(a, b)]))
	return t
}

// first returns the first of the class's slots whose job can overlap a
// job starting at a: the first that starts at or after a − reach,
// stopping at math.MinInt64. It looks up the bucket of that start, then
// searches the bucket.
func (c *startClass) first(slots []slot, a int64) int32 {
	if a < c.minStart || uint64(a)-uint64(c.minStart) <= c.reach {
		return c.lo
	}
	from := int64(uint64(a) - c.reach)
	b := (uint64(from) - uint64(c.minStart)) >> c.shift
	if b+1 >= uint64(len(c.buckets)) {
		return c.hi
	}
	lo, hi := c.buckets[b], c.buckets[b+1]
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if slots[mid].start < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
