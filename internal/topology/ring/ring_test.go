package ring

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := Instance{C: 100, G: 2, Jobs: []Job{{ID: 0, Arc: Arc{0, 50}, TStart: 0, TEnd: 10}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Instance{
		{C: 0, G: 1},
		{C: 10, G: 0},
		{C: 10, G: 1, Jobs: []Job{{Arc: Arc{10, 5}, TStart: 0, TEnd: 1}}}, // start out of range
		{C: 10, G: 1, Jobs: []Job{{Arc: Arc{0, 11}, TStart: 0, TEnd: 1}}}, // arc too long
		{C: 10, G: 1, Jobs: []Job{{Arc: Arc{0, 5}, TStart: 3, TEnd: 3}}},  // empty time
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d: bad instance accepted", i)
		}
	}
}

// TestValidateErrorIsDeterministic overloads eight machines, machine m
// with m+2 overlapping jobs, so each would give its own error text:
// every call must report the lowest-numbered one.
func TestValidateErrorIsDeterministic(t *testing.T) {
	in := Instance{C: 100, G: 1}
	var machines []int
	for m := 0; m < 8; m++ {
		for k := 0; k < m+2; k++ {
			in.Jobs = append(in.Jobs, Job{ID: len(in.Jobs), Arc: Arc{0, 10}, TStart: int64(100 * m), TEnd: int64(100*m + 10)})
			machines = append(machines, m)
		}
	}
	s := Schedule{Instance: in, Machine: machines}
	const want = "ring: machine 0 concurrency 2 > g = 1"
	for call := 0; call < 50; call++ {
		if err := s.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate() = %v, want %q", call, err, want)
		}
	}
}

func TestWrapAroundOverlap(t *testing.T) {
	in := Instance{C: 100, G: 1, Jobs: []Job{
		{ID: 0, Arc: Arc{90, 20}, TStart: 0, TEnd: 10}, // wraps: [90,100)+[0,10)
		{ID: 1, Arc: Arc{5, 10}, TStart: 5, TEnd: 15},  // [5,15)
		{ID: 2, Arc: Arc{40, 10}, TStart: 0, TEnd: 10}, // far around the ring
	}}
	if !in.Overlaps(in.Jobs[0], in.Jobs[1]) {
		t.Error("wrapped arc should overlap [5,15) in position and time")
	}
	if in.Overlaps(in.Jobs[0], in.Jobs[2]) {
		t.Error("disjoint arcs should not overlap")
	}
}

func TestWrapAroundArea(t *testing.T) {
	in := Instance{C: 100, G: 1, Jobs: []Job{
		{ID: 0, Arc: Arc{90, 20}, TStart: 0, TEnd: 10},
	}}
	if got := in.SpanArea(); got != 200 {
		t.Errorf("SpanArea = %d, want 200", got)
	}
	if got := in.TotalArea(); got != 200 {
		t.Errorf("TotalArea = %d, want 200", got)
	}
}

func TestFullCircleArc(t *testing.T) {
	in := Instance{C: 50, G: 1, Jobs: []Job{
		{ID: 0, Arc: Arc{25, 50}, TStart: 0, TEnd: 2}, // full circumference, wrapped
	}}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := in.SpanArea(); got != 100 {
		t.Errorf("SpanArea = %d, want 100", got)
	}
}

func TestFirstFitValidAndBounded(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in := randomInstance(seed, 25, 3)
		s := FirstFit(in)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if s.Cost() < in.SpanArea() || s.Cost() > in.TotalArea() {
			t.Errorf("seed %d: cost %d outside [span %d, len %d]",
				seed, s.Cost(), in.SpanArea(), in.TotalArea())
		}
	}
}

func TestFirstFitSharesNonOverlapping(t *testing.T) {
	in := Instance{C: 100, G: 1, Jobs: []Job{
		{ID: 0, Arc: Arc{0, 10}, TStart: 0, TEnd: 10},
		{ID: 1, Arc: Arc{50, 10}, TStart: 0, TEnd: 10},
	}}
	s := FirstFit(in)
	if s.Machines() != 1 {
		t.Errorf("non-overlapping ring jobs should share a thread: %d machines", s.Machines())
	}
}

func TestBucketFirstFit(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := randomInstance(seed, 30, 2)
		s, err := BucketFirstFit(in, 3.3)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// g-approximation safety net (Proposition 2.1 on the cylinder).
		if s.Cost() > int64(in.G)*in.LowerBound()*2 {
			t.Errorf("seed %d: cost %d suspiciously high vs LB %d", seed, s.Cost(), in.LowerBound())
		}
	}
}

func TestBucketFirstFitRejectsBadBeta(t *testing.T) {
	if _, err := BucketFirstFit(Instance{C: 10, G: 1}, 0.9); err == nil {
		t.Fatal("accepted beta < 1")
	}
}

func randomInstance(seed int64, n, g int) Instance {
	r := rand.New(rand.NewSource(seed))
	in := Instance{C: 200, G: g}
	for i := 0; i < n; i++ {
		ts := r.Int63n(50)
		in.Jobs = append(in.Jobs, Job{
			ID:     i,
			Arc:    Arc{Start: r.Int63n(200), Length: 1 + r.Int63n(80)},
			TStart: ts,
			TEnd:   ts + 1 + r.Int63n(30),
		})
	}
	return in
}

// Property: cost of any FirstFit schedule respects the cylinder bounds,
// and unrolled concurrency never exceeds g.
func TestPropertyFirstFitBounds(t *testing.T) {
	f := func(seed int64, nRaw, gRaw uint8) bool {
		n := int(nRaw%20) + 1
		g := int(gRaw%4) + 1
		in := randomInstance(seed, n, g)
		s := FirstFit(in)
		if s.Validate() != nil {
			return false
		}
		return s.Cost() >= in.SpanArea() && s.Cost() <= in.TotalArea()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
