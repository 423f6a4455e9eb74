package setcover

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGreedySimple(t *testing.T) {
	sets := []Set{
		{Elements: []int{0, 1}, Weight: 3},
		{Elements: []int{2}, Weight: 1},
		{Elements: []int{0, 1, 2}, Weight: 10},
	}
	chosen, err := Greedy(context.Background(), 3, sets)
	if err != nil {
		t.Fatal(err)
	}
	if CoverCost(sets, chosen) != 4 {
		t.Fatalf("cost = %d, want 4 (chosen %v)", CoverCost(sets, chosen), chosen)
	}
}

func TestGreedyPrefersRatio(t *testing.T) {
	// Big cheap set should beat small free-ish sets in ratio order.
	sets := []Set{
		{Elements: []int{0, 1, 2, 3}, Weight: 4}, // ratio 1
		{Elements: []int{0}, Weight: 2},          // ratio 2
		{Elements: []int{1}, Weight: 2},
		{Elements: []int{2}, Weight: 2},
		{Elements: []int{3}, Weight: 2},
	}
	chosen, err := Greedy(context.Background(), 4, sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 1 || chosen[0] != 0 {
		t.Fatalf("chosen = %v, want [0]", chosen)
	}
}

func TestGreedyZeroWeights(t *testing.T) {
	sets := []Set{
		{Elements: []int{0}, Weight: 0},
		{Elements: []int{1}, Weight: 0},
	}
	chosen, err := Greedy(context.Background(), 2, sets)
	if err != nil {
		t.Fatal(err)
	}
	if CoverCost(sets, chosen) != 0 {
		t.Fatal("zero-weight cover should cost 0")
	}
}

func TestGreedyUncoverable(t *testing.T) {
	if _, err := Greedy(context.Background(), 2, []Set{{Elements: []int{0}, Weight: 1}}); err == nil {
		t.Fatal("expected error for uncoverable universe")
	}
}

func TestGreedyRejectsOutOfRange(t *testing.T) {
	if _, err := Greedy(context.Background(), 2, []Set{{Elements: []int{5}, Weight: 1}}); err == nil {
		t.Fatal("expected error for out-of-range element")
	}
}

func TestGreedyEmptyUniverse(t *testing.T) {
	chosen, err := Greedy(context.Background(), 0, nil)
	if err != nil || len(chosen) != 0 {
		t.Fatalf("empty universe: %v %v", chosen, err)
	}
}

func TestGreedyPartitionDisjoint(t *testing.T) {
	sets := []Set{
		{Elements: []int{0, 1}, Weight: 1},
		{Elements: []int{1, 2}, Weight: 1}, // overlaps first; must be skipped once 1 covered
		{Elements: []int{2}, Weight: 5},
		{Elements: []int{0}, Weight: 9},
		{Elements: []int{1}, Weight: 9},
	}
	chosen, err := GreedyPartition(context.Background(), 3, sets)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, si := range chosen {
		for _, e := range sets[si].Elements {
			seen[e]++
		}
	}
	for e := 0; e < 3; e++ {
		if seen[e] != 1 {
			t.Fatalf("element %d covered %d times; partition required", e, seen[e])
		}
	}
}

func TestGreedyPartitionFailsWithoutSingletons(t *testing.T) {
	sets := []Set{
		{Elements: []int{0, 1}, Weight: 1},
		{Elements: []int{1, 2}, Weight: 1},
	}
	if _, err := GreedyPartition(context.Background(), 3, sets); err == nil {
		t.Fatal("expected failure: no disjoint completion exists")
	}
}

func TestGreedyPartitionEmptyUniverse(t *testing.T) {
	chosen, err := GreedyPartition(context.Background(), 0, nil)
	if err != nil || len(chosen) != 0 {
		t.Fatalf("empty universe: %v %v", chosen, err)
	}
}

func TestPartition(t *testing.T) {
	sets := []Set{
		{Elements: []int{0, 1, 2}, Weight: 1},
		{Elements: []int{2, 3}, Weight: 1},
	}
	parts := Partition(4, sets, []int{0, 1})
	if len(parts) != 2 {
		t.Fatalf("parts = %v", parts)
	}
	if len(parts[0]) != 3 || len(parts[1]) != 1 || parts[1][0] != 3 {
		t.Fatalf("parts = %v, want [[0 1 2] [3]]", parts)
	}
}

func TestPartitionPanicsOnNonCover(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-cover did not panic")
		}
	}()
	Partition(2, []Set{{Elements: []int{0}, Weight: 1}}, []int{0})
}

func TestEnumerateSubsets(t *testing.T) {
	var got [][]int
	if err := EnumerateSubsets(context.Background(), 4, 2, func(s []int) {
		cp := append([]int(nil), s...)
		got = append(got, cp)
	}); err != nil {
		t.Fatal(err)
	}
	want := int64(4 + 6) // C(4,1)+C(4,2)
	if int64(len(got)) != want {
		t.Fatalf("enumerated %d subsets, want %d", len(got), want)
	}
	seen := map[string]bool{}
	for _, s := range got {
		key := ""
		for _, v := range s {
			key += string(rune('a' + v))
		}
		if seen[key] {
			t.Fatalf("duplicate subset %v", s)
		}
		seen[key] = true
		if len(s) < 1 || len(s) > 2 {
			t.Fatalf("subset %v has bad size", s)
		}
	}
}

func TestCount(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{4, 2, 10},
		{5, 5, 31},
		{10, 1, 10},
		{0, 3, 0},
		{3, 10, 7},
	}
	for _, c := range cases {
		if got := Count(c.n, c.k); got != c.want {
			t.Errorf("Count(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	if Count(200, 100) != math.MaxInt64 {
		t.Error("Count should saturate on overflow")
	}
}

func TestHarmonic(t *testing.T) {
	if Harmonic(1) != 1 {
		t.Error("H_1 != 1")
	}
	if h := Harmonic(2); math.Abs(h-1.5) > 1e-12 {
		t.Errorf("H_2 = %v", h)
	}
	if h := Harmonic(6); math.Abs(h-2.45) > 0.01 {
		t.Errorf("H_6 = %v, want ~2.45", h)
	}
}

// exactCover finds the optimal cover cost by trying all 2^len(sets)
// combinations — the oracle for the H_k guarantee check.
func exactCover(n int, sets []Set) int64 {
	best := int64(math.MaxInt64)
	for mask := 0; mask < 1<<len(sets); mask++ {
		covered := make([]bool, n)
		var cost int64
		for i, s := range sets {
			if mask&(1<<i) == 0 {
				continue
			}
			cost += s.Weight
			for _, e := range s.Elements {
				covered[e] = true
			}
		}
		ok := true
		for _, c := range covered {
			if !c {
				ok = false
				break
			}
		}
		if ok && cost < best {
			best = cost
		}
	}
	return best
}

// Property: greedy respects the H_k bound against the exact cover.
func TestPropertyGreedyWithinHk(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(8) + 1
		nsets := r.Intn(10) + 1
		maxSize := 0
		sets := make([]Set, nsets)
		for i := range sets {
			size := r.Intn(3) + 1
			if size > n {
				size = n
			}
			elems := map[int]bool{}
			for len(elems) < size {
				elems[r.Intn(n)] = true
			}
			var list []int
			for e := range elems {
				list = append(list, e)
			}
			sets[i] = Set{Elements: list, Weight: r.Int63n(20)}
			if size > maxSize {
				maxSize = size
			}
		}
		// Guarantee coverability with singletons.
		for e := 0; e < n; e++ {
			sets = append(sets, Set{Elements: []int{e}, Weight: r.Int63n(20) + 1})
		}
		if maxSize < 1 {
			maxSize = 1
		}
		chosen, err := Greedy(context.Background(), n, sets)
		if err != nil {
			return false
		}
		got := float64(CoverCost(sets, chosen))
		opt := float64(exactCover(n, sets))
		return got <= Harmonic(maxSize)*opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGreedyCancellation(t *testing.T) {
	// A pre-canceled context must surface from both greedy variants and
	// from the subset enumeration instead of running to completion.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	n := 400
	var sets []Set
	for i := 0; i < n; i++ {
		sets = append(sets, Set{Elements: []int{i}, Weight: 1})
	}
	if _, err := Greedy(ctx, n, sets); err != context.Canceled {
		t.Errorf("Greedy returned %v, want context.Canceled", err)
	}
	if _, err := GreedyPartition(ctx, n, sets); err != context.Canceled {
		t.Errorf("GreedyPartition returned %v, want context.Canceled", err)
	}
	if err := EnumerateSubsets(ctx, 30, 4, func([]int) {}); err != context.Canceled {
		t.Errorf("EnumerateSubsets returned %v, want context.Canceled", err)
	}
}
