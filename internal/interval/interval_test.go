package interval

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestLen(t *testing.T) {
	cases := []struct {
		iv   Interval
		want int64
	}{
		{New(0, 10), 10},
		{New(5, 5), 0},
		{New(-3, 4), 7},
		{Interval{Start: 4, End: 2}, 0}, // malformed treated as empty
	}
	for _, c := range cases {
		if got := c.iv.Len(); got != c.want {
			t.Errorf("Len(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestNewPanicsOnReversed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(2, 1) did not panic")
		}
	}()
	New(2, 1)
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{New(0, 10), New(5, 15), true},
		{New(0, 10), New(10, 20), false}, // touching endpoints do not overlap
		{New(0, 10), New(11, 20), false},
		{New(0, 10), New(2, 3), true},
		{New(5, 5), New(0, 10), false}, // empty never overlaps
		{New(0, 10), New(0, 10), true},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("Overlaps(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("Overlaps(%v, %v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestIntersect(t *testing.T) {
	got := New(0, 10).Intersect(New(5, 15))
	if got != New(5, 10) {
		t.Errorf("Intersect = %v, want [5,10)", got)
	}
	if !New(0, 5).Intersect(New(7, 9)).Empty() {
		t.Error("disjoint intersection should be empty")
	}
	if New(0, 10).OverlapLen(New(4, 6)) != 2 {
		t.Error("OverlapLen of contained interval wrong")
	}
}

func TestContainment(t *testing.T) {
	outer := New(0, 10)
	if !outer.Contains(New(0, 10)) {
		t.Error("interval should contain itself")
	}
	if outer.ProperlyContains(New(0, 10)) {
		t.Error("interval should not properly contain itself")
	}
	if !outer.ProperlyContains(New(2, 8)) {
		t.Error("outer should properly contain [2,8)")
	}
	if !outer.ProperlyContains(New(0, 9)) {
		t.Error("same-start shorter interval is properly contained")
	}
	if outer.Contains(New(5, 11)) {
		t.Error("outer should not contain [5,11)")
	}
}

func TestContainsTime(t *testing.T) {
	iv := New(3, 7)
	for _, tc := range []struct {
		t    int64
		want bool
	}{{2, false}, {3, true}, {6, true}, {7, false}} {
		if got := iv.ContainsTime(tc.t); got != tc.want {
			t.Errorf("ContainsTime(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestUnionMergesTouching(t *testing.T) {
	u := Union([]Interval{New(0, 2), New(2, 4), New(6, 8)})
	if len(u) != 2 || u[0] != New(0, 4) || u[1] != New(6, 8) {
		t.Errorf("Union = %v, want [[0,4) [6,8)]", u)
	}
}

func TestUnionEmptyInputs(t *testing.T) {
	if Union(nil) != nil {
		t.Error("Union(nil) should be nil")
	}
	if Union([]Interval{New(3, 3)}) != nil {
		t.Error("Union of empty intervals should be nil")
	}
}

func TestSpan(t *testing.T) {
	cases := []struct {
		ivs  []Interval
		want int64
	}{
		{nil, 0},
		{[]Interval{New(0, 10)}, 10},
		{[]Interval{New(0, 10), New(5, 15)}, 15},
		{[]Interval{New(0, 5), New(10, 15)}, 10},
		{[]Interval{New(0, 10), New(2, 4), New(3, 8)}, 10},
	}
	for _, c := range cases {
		if got := Span(c.ivs); got != c.want {
			t.Errorf("Span(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestHull(t *testing.T) {
	h := Hull([]Interval{New(3, 5), New(-1, 2), New(4, 9)})
	if h != New(-1, 9) {
		t.Errorf("Hull = %v, want [-1,9)", h)
	}
	if !Hull(nil).Empty() {
		t.Error("Hull(nil) should be empty")
	}
}

func TestCommonTime(t *testing.T) {
	if ct, ok := CommonTime([]Interval{New(0, 10), New(5, 15), New(7, 9)}); !ok || ct < 7 || ct >= 9 {
		t.Errorf("CommonTime = %d,%v, want a time in [7,9)", ct, ok)
	}
	if _, ok := CommonTime([]Interval{New(0, 5), New(5, 10)}); ok {
		t.Error("touching intervals share no common processing time")
	}
	if _, ok := CommonTime(nil); ok {
		t.Error("no common time for empty set")
	}
}

func TestMaxConcurrency(t *testing.T) {
	cases := []struct {
		ivs  []Interval
		want int
	}{
		{nil, 0},
		{[]Interval{New(0, 10)}, 1},
		{[]Interval{New(0, 10), New(10, 20)}, 1}, // touching
		{[]Interval{New(0, 10), New(5, 15), New(8, 9)}, 3},
		{[]Interval{New(0, 4), New(4, 8), New(2, 6)}, 2},
	}
	for _, c := range cases {
		if got := MaxConcurrency(c.ivs); got != c.want {
			t.Errorf("MaxConcurrency(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestWeightedMaxConcurrency(t *testing.T) {
	ivs := []Interval{New(0, 10), New(5, 15), New(8, 9)}
	w := []int64{3, 2, 5}
	if got := WeightedMaxConcurrency(ivs, w); got != 10 {
		t.Errorf("WeightedMaxConcurrency = %d, want 10", got)
	}
	if got := WeightedMaxConcurrency(nil, nil); got != 0 {
		t.Errorf("WeightedMaxConcurrency(nil) = %d, want 0", got)
	}
}

func TestWeightedMaxConcurrencyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths did not panic")
		}
	}()
	WeightedMaxConcurrency([]Interval{New(0, 1)}, nil)
}

// randomIntervals builds a reproducible random interval set for property
// tests.
func randomIntervals(r *rand.Rand, n int) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		s := r.Int63n(1000) - 500
		l := r.Int63n(200)
		ivs[i] = New(s, s+l)
	}
	return ivs
}

// Property: span(I) <= len(I), with equality iff the union is disjoint
// (Observation after Definition 2.2).
func TestPropertySpanAtMostLen(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		ivs := randomIntervals(r, int(nRaw%32))
		var total int64
		for _, iv := range ivs {
			total += iv.Len()
		}
		return Span(ivs) <= total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtend(t *testing.T) {
	end := int64(math.MinInt64)
	steps := []struct {
		iv      Interval
		added   int64
		nextEnd int64
	}{
		{New(-5, 3), 8, 3},        // the first interval adds its length
		{New(0, 2), 0, 3},         // inside the union: nothing
		{New(1, 7), 4, 7},         // overlapping: only the part past the edge
		{New(7, 9), 2, 9},         // touching: its whole length
		{New(9, 9), 0, 9},         // empty: nothing, edge unchanged
		{New(20, 25), 5, 25},      // past a gap: its whole length
		{New(20, 26), 1, 26},      // same start, later end
		{Interval{30, 28}, 0, 26}, // reversed (empty): nothing
	}
	for i, st := range steps {
		if got := Extend(&end, st.iv); got != st.added || end != st.nextEnd {
			t.Errorf("step %d %v: added %d, end %d; want %d, %d", i, st.iv, got, end, st.added, st.nextEnd)
		}
	}
}

// Property: Extend summed over intervals in start order is Span.
func TestPropertyExtendIsSpan(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		ivs := randomIntervals(r, int(nRaw%32))
		slices.SortFunc(ivs, func(a, b Interval) int { return cmp.Compare(a.Start, b.Start) })
		end := int64(math.MinInt64)
		var total int64
		for _, iv := range ivs {
			total += Extend(&end, iv)
		}
		return total == Span(ivs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: span is monotone under adding intervals, and subadditive.
func TestPropertySpanMonotoneSubadditive(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomIntervals(r, int(nRaw%16))
		b := randomIntervals(r, int(mRaw%16))
		all := append(append([]Interval{}, a...), b...)
		sAll, sA, sB := Span(all), Span(a), Span(b)
		return sAll >= sA && sAll >= sB && sAll <= sA+sB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Union produces sorted, pairwise-disjoint, non-touching
// intervals whose total length equals Span, and every input point is
// covered.
func TestPropertyUnionCanonical(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		ivs := randomIntervals(r, int(nRaw%24))
		u := Union(ivs)
		var total int64
		for i, x := range u {
			if x.Empty() {
				return false
			}
			total += x.Len()
			if i > 0 && u[i-1].End >= x.Start {
				return false // must be strictly separated
			}
		}
		if total != Span(ivs) {
			return false
		}
		// Every original interval must be covered by the union.
		for _, iv := range ivs {
			if iv.Empty() {
				continue
			}
			covered := false
			for _, x := range u {
				if x.Contains(iv) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MaxConcurrency is between 1 and n for non-empty sets, and
// equals n exactly when a common time exists.
func TestPropertyConcurrencyVsCommonTime(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%16) + 1
		ivs := make([]Interval, n)
		for i := range ivs {
			s := r.Int63n(100)
			ivs[i] = New(s, s+1+r.Int63n(50))
		}
		mc := MaxConcurrency(ivs)
		if mc < 1 || mc > n {
			return false
		}
		_, hasCommon := CommonTime(ivs)
		return (mc == n) == hasCommon
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for two intervals, OverlapLen(a,b) = len(a)+len(b)-span({a,b}).
func TestPropertyInclusionExclusion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pair := randomIntervals(r, 2)
		a, b := pair[0], pair[1]
		return a.OverlapLen(b) == a.Len()+b.Len()-Span([]Interval{a, b})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
