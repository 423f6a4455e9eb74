package matching

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

func matchWeight(t *testing.T, n int, edges []Edge, mate []int) int64 {
	t.Helper()
	if len(mate) != n {
		t.Fatalf("mate has length %d, want %d", len(mate), n)
	}
	for u, v := range mate {
		if v == -1 {
			continue
		}
		if v < 0 || v >= n || mate[v] != u {
			t.Fatalf("mate not symmetric at %d -> %d", u, v)
		}
		if v == u {
			t.Fatalf("self-matched vertex %d", u)
		}
	}
	return Weight(mate, edges)
}

func TestEmptyGraph(t *testing.T) {
	mate := mateOf(4, nil)
	for _, v := range mate {
		if v != -1 {
			t.Fatalf("unmatched expected, got %v", mate)
		}
	}
	if mateOf(0, nil) == nil {
		t.Fatal("zero-vertex graph should return empty slice, not nil")
	}
}

func TestSingleEdge(t *testing.T) {
	edges := []Edge{{0, 1, 7}}
	mate := mateOf(2, edges)
	if mate[0] != 1 || mate[1] != 0 {
		t.Fatalf("mate = %v", mate)
	}
	if w := matchWeight(t, 2, edges, mate); w != 7 {
		t.Fatalf("weight = %d", w)
	}
}

func TestNegativeEdgeIgnored(t *testing.T) {
	mate := mateOf(2, []Edge{{0, 1, -5}})
	if mate[0] != -1 || mate[1] != -1 {
		t.Fatalf("negative edge should not be matched: %v", mate)
	}
}

func TestPathGraph(t *testing.T) {
	// 0-1 (2), 1-2 (3), 2-3 (2): best is {0-1, 2-3} with weight 4.
	edges := []Edge{{0, 1, 2}, {1, 2, 3}, {2, 3, 2}}
	mate := mateOf(4, edges)
	if w := matchWeight(t, 4, edges, mate); w != 4 {
		t.Fatalf("weight = %d, want 4 (mate %v)", w, mate)
	}
}

func TestPathPrefersHeavyMiddle(t *testing.T) {
	// 0-1 (2), 1-2 (10), 2-3 (2): best is the middle edge alone.
	edges := []Edge{{0, 1, 2}, {1, 2, 10}, {2, 3, 2}}
	mate := mateOf(4, edges)
	if w := matchWeight(t, 4, edges, mate); w != 10 {
		t.Fatalf("weight = %d, want 10 (mate %v)", w, mate)
	}
	if mate[1] != 2 || mate[2] != 1 {
		t.Fatalf("middle edge not chosen: %v", mate)
	}
}

func TestTriangle(t *testing.T) {
	// Odd cycle: only one edge can be used; pick the heaviest.
	edges := []Edge{{0, 1, 5}, {1, 2, 6}, {0, 2, 4}}
	mate := mateOf(3, edges)
	if w := matchWeight(t, 3, edges, mate); w != 6 {
		t.Fatalf("weight = %d, want 6 (mate %v)", w, mate)
	}
}

func TestBlossomFormation(t *testing.T) {
	// Classic blossom test (van Rantwijk test case): a 5-cycle with a tail
	// forcing blossom contraction and expansion.
	edges := []Edge{
		{1, 2, 9}, {1, 3, 8}, {2, 3, 10}, {1, 4, 5}, {4, 5, 4}, {1, 6, 3},
	}
	mate := mateOf(7, edges)
	wantW, _ := BruteForce(7, edges)
	if w := matchWeight(t, 7, edges, mate); w != wantW {
		t.Fatalf("weight = %d, want %d (mate %v)", w, wantW, mate)
	}
}

func TestNestedBlossoms(t *testing.T) {
	// Known hard case: nested S-blossoms requiring expansion (adapted from
	// the reference implementation's test 34).
	edges := []Edge{
		{1, 2, 19}, {1, 3, 20}, {1, 8, 8}, {2, 3, 25}, {2, 4, 18},
		{3, 5, 18}, {4, 5, 13}, {4, 7, 7}, {5, 6, 7},
	}
	n := 9
	mate := mateOf(n, edges)
	wantW, _ := BruteForce(n, edges)
	if w := matchWeight(t, n, edges, mate); w != wantW {
		t.Fatalf("weight = %d, want %d (mate %v)", w, wantW, mate)
	}
}

func TestBlossomExpansionCases(t *testing.T) {
	// Further reference cases that historically trigger distinct code
	// paths: blossom with T-relabeling and expanded blossom reached via
	// delta-4.
	cases := [][]Edge{
		{
			{1, 2, 45}, {1, 5, 45}, {2, 3, 50}, {3, 4, 45}, {4, 5, 50},
			{1, 6, 30}, {3, 9, 35}, {4, 8, 35}, {5, 7, 26}, {9, 10, 5},
		},
		{
			{1, 2, 45}, {1, 5, 45}, {2, 3, 50}, {3, 4, 45}, {4, 5, 50},
			{1, 6, 30}, {3, 9, 35}, {4, 8, 26}, {5, 7, 40}, {9, 10, 5},
		},
		{
			{1, 2, 45}, {1, 7, 45}, {2, 3, 50}, {3, 4, 45}, {4, 5, 95},
			{4, 6, 94}, {5, 6, 94}, {6, 7, 50}, {1, 8, 30}, {3, 11, 35},
			{5, 9, 36}, {7, 10, 26}, {11, 12, 5},
		},
	}
	for ci, edges := range cases {
		n := 0
		for _, e := range edges {
			if e.U >= n {
				n = e.U + 1
			}
			if e.V >= n {
				n = e.V + 1
			}
		}
		mate := mateOf(n, edges)
		wantW, _ := BruteForce(n, edges)
		if w := matchWeight(t, n, edges, mate); w != wantW {
			t.Fatalf("case %d: weight = %d, want %d (mate %v)", ci, w, wantW, mate)
		}
	}
}

func TestCompleteGraphSmall(t *testing.T) {
	// K6 with distinct weights: perfect matching must be chosen optimally.
	var edges []Edge
	w := int64(1)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, Edge{i, j, (w*w*7)%31 + 1})
			w++
		}
	}
	mate := mateOf(6, edges)
	wantW, _ := BruteForce(6, edges)
	if got := matchWeight(t, 6, edges, mate); got != wantW {
		t.Fatalf("weight = %d, want %d", got, wantW)
	}
}

func TestPanicsOnSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	mateOf(2, []Edge{{1, 1, 3}})
}

func TestPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range vertex did not panic")
		}
	}()
	mateOf(2, []Edge{{0, 5, 3}})
}

func randomGraph(r *rand.Rand, n, m int, maxW int64) []Edge {
	var edges []Edge
	for k := 0; k < m; k++ {
		u := r.Intn(n)
		v := r.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, Edge{u, v, r.Int63n(maxW) + 1})
	}
	return edges
}

// Property: blossom solver matches the exponential oracle on random dense
// graphs up to 10 vertices.
func TestPropertyMatchesBruteForce(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%9) + 2
		m := int(mRaw%40) + 1
		edges := randomGraph(r, n, m, 50)
		mate := mateOf(n, edges)
		for u, v := range mate {
			if v != -1 && mate[v] != u {
				return false
			}
		}
		wantW, _ := BruteForce(n, edges)
		return Weight(mate, edges) == wantW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: on complete graphs with small weights (maximum blossom stress),
// the solver still matches the oracle.
func TestPropertyCompleteGraphs(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 2
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, Edge{i, j, r.Int63n(8) + 1})
			}
		}
		mate := mateOf(n, edges)
		wantW, _ := BruteForce(n, edges)
		return Weight(mate, edges) == wantW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBruteForceMate(t *testing.T) {
	edges := []Edge{{0, 1, 2}, {1, 2, 10}, {2, 3, 2}}
	w, mate := BruteForce(4, edges)
	if w != 10 {
		t.Fatalf("BruteForce weight = %d", w)
	}
	if mate[1] != 2 || mate[2] != 1 || mate[0] != -1 || mate[3] != -1 {
		t.Fatalf("BruteForce mate = %v", mate)
	}
}

func TestBruteForcePanicsOnLargeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=25 did not panic")
		}
	}()
	BruteForce(25, nil)
}

func TestMaxCancellation(t *testing.T) {
	// A dense random graph large enough that the blossom search performs
	// well over one ctx-check interval of inner steps: a pre-canceled
	// context must abort the stage loop.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 120
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{U: i, V: j, Weight: int64(1 + (i*7+j*13)%50)})
		}
	}
	if _, err := Max(ctx, n, edges); err != context.Canceled {
		t.Errorf("Max returned %v, want context.Canceled", err)
	}
}

// mateOf runs Max under a context that never fires, so its only error
// path cannot trigger.
func mateOf(n int, edges []Edge) []int {
	mate, err := Max(context.Background(), n, edges)
	if err != nil {
		panic(err)
	}
	return mate
}
