package job

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/interval"
)

func TestNewAndAccessors(t *testing.T) {
	j := New(3, 5, 12)
	if j.ID != 3 || j.Start() != 5 || j.End() != 12 || j.Len() != 7 {
		t.Errorf("accessors wrong: %+v", j)
	}
	if j.Weight != 1 || j.Demand != 1 {
		t.Errorf("defaults wrong: %+v", j)
	}
}

func TestOverlaps(t *testing.T) {
	a, b, c := New(0, 0, 10), New(1, 10, 20), New(2, 5, 15)
	if a.Overlaps(b) {
		t.Error("touching jobs should not overlap")
	}
	if !a.Overlaps(c) || !b.Overlaps(c) {
		t.Error("overlapping jobs not detected")
	}
}

func TestNewInstance(t *testing.T) {
	in := NewInstance(2, [2]int64{0, 5}, [2]int64{3, 9})
	if len(in.Jobs) != 2 || in.G != 2 {
		t.Fatalf("NewInstance = %+v", in)
	}
	if in.Jobs[1].ID != 1 || in.Jobs[1].Start() != 3 {
		t.Errorf("job 1 = %+v", in.Jobs[1])
	}
	if err := in.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		in   Instance
	}{
		{"zero g", Instance{G: 0}},
		{"empty job", NewInstance(1, [2]int64{5, 5})},
		{"dup id", Instance{G: 1, Jobs: []Job{New(0, 0, 1), New(0, 2, 3)}}},
		{"bad weight", Instance{G: 1, Jobs: []Job{{ID: 0, Interval: New(0, 0, 1).Interval, Weight: 0, Demand: 1}}}},
		{"demand over g", Instance{G: 2, Jobs: []Job{{ID: 0, Interval: New(0, 0, 1).Interval, Weight: 1, Demand: 3}}}},
	}
	for _, c := range cases {
		if err := c.in.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid instance", c.name)
		}
	}
}

func TestBounds(t *testing.T) {
	// Three jobs [0,10), [0,10), [20,30): len=30, span=20.
	in := NewInstance(2, [2]int64{0, 10}, [2]int64{0, 10}, [2]int64{20, 30})
	if in.TotalLen() != 30 {
		t.Errorf("TotalLen = %d", in.TotalLen())
	}
	if in.Span() != 20 {
		t.Errorf("Span = %d", in.Span())
	}
	if in.ParallelismBound() != 15 {
		t.Errorf("ParallelismBound = %d", in.ParallelismBound())
	}
	if in.LowerBound() != 20 {
		t.Errorf("LowerBound = %d, want span bound 20", in.LowerBound())
	}
	// With g=3 parallelism bound is 10, span still dominates.
	in.G = 3
	if in.LowerBound() != 20 {
		t.Errorf("LowerBound g=3 = %d", in.LowerBound())
	}
}

func TestParallelismBoundRoundsUp(t *testing.T) {
	in := NewInstance(2, [2]int64{0, 3}) // len 3, g 2 -> ceil(1.5) = 2
	if in.ParallelismBound() != 2 {
		t.Errorf("ParallelismBound = %d, want 2", in.ParallelismBound())
	}
}

func TestSortedByStart(t *testing.T) {
	in := Instance{G: 1, Jobs: []Job{New(0, 9, 12), New(1, 0, 5), New(2, 0, 3)}}
	s := in.SortedByStart()
	if s.Jobs[0].ID != 2 || s.Jobs[1].ID != 1 || s.Jobs[2].ID != 0 {
		t.Errorf("sorted order = %v", s.Jobs)
	}
	// Original must be untouched.
	if in.Jobs[0].ID != 0 {
		t.Error("SortedByStart mutated receiver")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := NewInstance(3, [2]int64{0, 5}, [2]int64{2, 9})
	in.Jobs[1].Weight = 4
	in.Jobs[1].Demand = 2
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.G != 3 || len(back.Jobs) != 2 {
		t.Fatalf("round trip = %+v", back)
	}
	if back.Jobs[1].Weight != 4 || back.Jobs[1].Demand != 2 {
		t.Errorf("weights/demands lost: %+v", back.Jobs[1])
	}
	if back.Jobs[0].Weight != 1 || back.Jobs[0].Demand != 1 {
		t.Errorf("defaults not applied: %+v", back.Jobs[0])
	}
}

func TestJSONRejectsBad(t *testing.T) {
	var in Instance
	if err := json.Unmarshal([]byte(`{"g":0,"jobs":[]}`), &in); err == nil {
		t.Error("accepted g=0")
	}
	if err := json.Unmarshal([]byte(`{"g":1,"jobs":[{"id":0,"start":5,"end":2}]}`), &in); err == nil {
		t.Error("accepted reversed interval")
	}
}

func TestRectInstance(t *testing.T) {
	in := RectInstance{G: 2, Jobs: []RectJob{
		NewRectJob(0, 0, 10, 0, 10),
		NewRectJob(1, 5, 15, 5, 15),
	}}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.TotalArea() != 200 {
		t.Errorf("TotalArea = %d", in.TotalArea())
	}
	if in.SpanArea() != 175 {
		t.Errorf("SpanArea = %d", in.SpanArea())
	}
	// Lower bound: max(ceil(200/2)=100, 175) = 175.
	if in.LowerBound() != 175 {
		t.Errorf("LowerBound = %d", in.LowerBound())
	}
}

func TestRectInstanceValidateRejects(t *testing.T) {
	if err := (RectInstance{G: 0}).Validate(); err == nil {
		t.Error("accepted g=0")
	}
	bad := RectInstance{G: 1, Jobs: []RectJob{NewRectJob(0, 0, 0, 0, 5)}}
	if err := bad.Validate(); err == nil {
		t.Error("accepted empty rect job")
	}
	dup := RectInstance{G: 1, Jobs: []RectJob{NewRectJob(0, 0, 1, 0, 1), NewRectJob(0, 2, 3, 2, 3)}}
	if err := dup.Validate(); err == nil {
		t.Error("accepted duplicate IDs")
	}
}

func TestClone(t *testing.T) {
	in := NewInstance(2, [2]int64{0, 5})
	cp := in.Clone()
	cp.Jobs[0].Interval.End = 99
	if in.Jobs[0].End() == 99 {
		t.Error("Clone shares job storage")
	}
}

// validateReference is Validate with the ID map it built on every call,
// the reference the one-pass ID check must agree with, error text
// included.
func validateReference(in Instance) error {
	if in.G < 1 {
		return fmt.Errorf("job: capacity g = %d, need g >= 1", in.G)
	}
	seen := make(map[int]bool, len(in.Jobs))
	for i, j := range in.Jobs {
		if j.Interval.Empty() {
			return fmt.Errorf("job: job %d has empty interval %v", i, j.Interval)
		}
		if seen[j.ID] {
			return fmt.Errorf("job: duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
		if j.Weight < 1 {
			return fmt.Errorf("job: job %d has weight %d, need >= 1", j.ID, j.Weight)
		}
		if j.Demand < 1 || j.Demand > int64(in.G) {
			return fmt.Errorf("job: job %d has demand %d outside [1, g=%d]", j.ID, j.Demand, in.G)
		}
	}
	return nil
}

func TestValidateIDsMatchReference(t *testing.T) {
	// Each case lists job IDs; a job with ID 100 has weight 0, and one
	// with ID 200 is empty, so a duplicate competes with other errors.
	cases := map[string][]int{
		"increasing":            {1, 2, 5, 9},
		"negative increasing":   {-9, -3, 0, 4},
		"shuffled":              {4, 1, 3, 2, 0},
		"duplicate adjacent":    {1, 2, 2, 3},
		"duplicate at start":    {7, 7},
		"duplicate after drop":  {1, 5, 3, 5},
		"duplicate of first":    {1, 5, 9, 1},
		"duplicate late":        {0, 1, 2, 3, 10, 4, 5, 6, 7, 6},
		"mixed no duplicate":    {0, 2, 4, 1, 3, 5, 7, 6},
		"weight before dup":     {1, 100, 1},
		"dup before weight":     {1, 3, 1, 100},
		"empty before dup":      {1, 200, 1},
		"dup before empty":      {3, 3, 200},
		"weight in rising run":  {1, 2, 100, 101},
		"dup of weight-bad id":  {100, 100},
		"single":                {42},
		"none":                  {},
		"max and min int":       {math.MinInt, 0, math.MaxInt},
		"descending then equal": {9, 8, 7, 7},
	}
	for name, ids := range cases {
		in := Instance{G: 2, Jobs: make([]Job, len(ids))}
		for i, id := range ids {
			in.Jobs[i] = Job{ID: id, Interval: interval.New(int64(i), int64(i)+3), Weight: 1, Demand: 1}
			switch id {
			case 100:
				in.Jobs[i].Weight = 0
			case 200:
				in.Jobs[i].Interval.End = in.Jobs[i].Interval.Start
			}
		}
		got, want := in.Validate(), validateReference(in)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s %v: Validate = %v, reference %v", name, ids, got, want)
		}
	}
	// Random ID sequences, half of them rising.
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		in := Instance{G: 3, Jobs: make([]Job, r.Intn(12))}
		id := r.Intn(5) - 2
		for i := range in.Jobs {
			if trial%2 == 0 {
				id += r.Intn(3)
			} else {
				id = r.Intn(10)
			}
			in.Jobs[i] = Job{ID: id, Interval: interval.New(0, 1), Weight: 1 + r.Int63n(2) - int64(r.Intn(30)/29), Demand: 1 + r.Int63n(3)}
		}
		if got, want := in.Validate(), validateReference(in); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%+v: Validate = %v, reference %v", in.Jobs, got, want)
		}
	}
}
