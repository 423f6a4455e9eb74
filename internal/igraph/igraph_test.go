package igraph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/workload"
)

func inst(spans ...[2]int64) []job.Job {
	return job.NewInstance(1, spans...).Jobs
}

func TestBuildAdjacency(t *testing.T) {
	// 0:[0,10) 1:[5,15) 2:[20,30) 3:[9,21)
	jobs := inst([2]int64{0, 10}, [2]int64{5, 15}, [2]int64{20, 30}, [2]int64{9, 21})
	g := Build(jobs)
	wantAdj := [][]int{{1, 3}, {0, 3}, {3}, {0, 1, 2}}
	for i, want := range wantAdj {
		got := g.Neighbors(i)
		if len(got) != len(want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("Neighbors(%d) = %v, want %v", i, got, want)
			}
		}
	}
	if g.Edges() != 4 {
		t.Errorf("Edges = %d, want 4", g.Edges())
	}
	if g.Degree(3) != 3 {
		t.Errorf("Degree(3) = %d", g.Degree(3))
	}
}

func TestOverlapWeight(t *testing.T) {
	jobs := inst([2]int64{0, 10}, [2]int64{5, 15})
	g := Build(jobs)
	if w := g.OverlapWeight(0, 1); w != 5 {
		t.Errorf("OverlapWeight = %d, want 5", w)
	}
}

// connectedComponentsReference returns the vertex sets of the graph's
// connected components by BFS, each sorted, in order of smallest member:
// the partition SplitComponents must reproduce without building edges.
func connectedComponentsReference(g *Graph) [][]int {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	for start := 0; start < n; start++ {
		if comp[start] != -1 {
			continue
		}
		id := len(comps)
		queue := []int{start}
		comp[start] = id
		var members []int
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			members = append(members, v)
			for _, w := range g.Neighbors(v) {
				if comp[w] == -1 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
		sort.Ints(members)
		comps = append(comps, members)
	}
	return comps
}

// splitReference is SplitComponents computed from the whole graph.
func splitReference(in job.Instance) []job.Instance {
	comps := connectedComponentsReference(Build(in.Jobs))
	out := make([]job.Instance, len(comps))
	for i, members := range comps {
		jobs := make([]job.Job, len(members))
		for k, v := range members {
			jobs[k] = in.Jobs[v]
		}
		out[i] = job.Instance{Jobs: jobs, G: in.G}
	}
	return out
}

func equalSplits(a, b []job.Instance) bool {
	return slices.EqualFunc(a, b, func(x, y job.Instance) bool {
		return x.G == y.G && slices.Equal(x.Jobs, y.Jobs)
	})
}

func TestConnectedComponents(t *testing.T) {
	jobs := inst([2]int64{0, 10}, [2]int64{5, 15}, [2]int64{20, 30}, [2]int64{25, 35}, [2]int64{50, 60})
	comps := connectedComponentsReference(Build(jobs))
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	want := [][]int{{0, 1}, {2, 3}, {4}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
		}
		for k := range want[i] {
			if comps[i][k] != want[i][k] {
				t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
			}
		}
	}
}

// TestSplitComponentsMatchesGraph checks the sweep against the BFS over
// the built graph: the same sub-instances in the same order, on every
// workload family and on hand-written shapes around the half-open rule.
func TestSplitComponentsMatchesGraph(t *testing.T) {
	for _, family := range workload.Names() {
		for _, n := range []int{0, 1, 2, 5, 30, 200} {
			for seed := int64(1); seed <= 200; seed++ {
				// Lengths up to 1..25 on a horizon of 4n+20 mix
				// single-job components with long overlapping runs.
				cfg := workload.Config{N: n, G: 3, MaxTime: int64(4*n + 20), MaxLen: 1 + seed%25}
				in, err := workload.ByName(family, seed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := SplitComponents(in), splitReference(in); !equalSplits(got, want) {
					t.Fatalf("%s n=%d seed=%d: sweep %v, graph %v", family, n, seed, got, want)
				}
				checkComponentOrders(t, in)
			}
		}
	}

	withIDs := func(ids []int, jobs []job.Job) []job.Job {
		for i := range jobs {
			jobs[i].ID = ids[i]
		}
		return jobs
	}
	cases := []struct {
		name  string
		jobs  []job.Job
		comps int
	}{
		{"touching endpoints", inst([2]int64{0, 10}, [2]int64{10, 20}, [2]int64{20, 30}), 3},
		{"nesting", inst([2]int64{0, 100}, [2]int64{10, 20}, [2]int64{30, 40}, [2]int64{150, 160}, [2]int64{152, 155}), 2},
		{"equal starts, different ends", inst([2]int64{0, 12}, [2]int64{0, 5}, [2]int64{11, 20}, [2]int64{20, 25}, [2]int64{20, 21}), 2},
		{"duplicate intervals", inst([2]int64{0, 10}, [2]int64{0, 10}, [2]int64{10, 20}, [2]int64{10, 20}), 2},
		{"out of start order", inst([2]int64{50, 60}, [2]int64{0, 10}, [2]int64{55, 70}, [2]int64{5, 8}, [2]int64{70, 71}), 3},
		{"ids differ from positions", withIDs([]int{42, 7, 19, 3}, inst([2]int64{30, 40}, [2]int64{0, 10}, [2]int64{35, 50}, [2]int64{9, 12})), 2},
		{"one job bridges two groups", inst([2]int64{0, 10}, [2]int64{2, 8}, [2]int64{20, 30}, [2]int64{22, 28}, [2]int64{5, 25}), 1},
	}
	for _, c := range cases {
		in := job.Instance{Jobs: c.jobs, G: 2}
		got, want := SplitComponents(in), splitReference(in)
		if !equalSplits(got, want) {
			t.Errorf("%s: sweep %v, graph %v", c.name, got, want)
		}
		if len(got) != c.comps {
			t.Errorf("%s: %d components, want %d", c.name, len(got), c.comps)
		}
	}
}

// TestSplitComponentsAllocs pins the split's allocations to a constant:
// a 5000-job clique has 12.5M edges, none of which the sweep builds.
func TestSplitComponentsAllocs(t *testing.T) {
	in := workload.Clique(1, workload.Config{N: 5000, G: 4, MaxTime: 10000, MaxLen: 10000})
	if comps := SplitComponents(in); len(comps) != 1 {
		t.Fatalf("clique split into %d components, want 1", len(comps))
	}
	if allocs := testing.AllocsPerRun(5, func() { SplitComponents(in) }); allocs > 16 {
		t.Errorf("SplitComponents on a 5000-job clique: %.0f allocations, want at most 16", allocs)
	}
}

// decodeJobs turns bytes into at most 64 jobs, two bytes each: a start
// on the grid 0..63 and a length in 1..16, so equal and touching
// endpoints are common. IDs count down from 63, so they differ from
// positions.
func decodeJobs(data []byte) job.Instance {
	in := job.Instance{G: 1}
	for i := 0; i+1 < len(data) && len(in.Jobs) < 64; i += 2 {
		start := int64(data[i] % 64)
		in.Jobs = append(in.Jobs, job.New(63-len(in.Jobs), start, start+1+int64(data[i+1]%16)))
	}
	return in
}

// FuzzSplitComponents compares the sweep with the BFS over the built
// graph on decoded job sets. Run with:
//
//	go test -fuzz FuzzSplitComponents -fuzztime 30s -run '^$' ./internal/igraph
func FuzzSplitComponents(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeJobs(data)
		if got, want := SplitComponents(in), splitReference(in); !equalSplits(got, want) {
			t.Fatalf("jobs %v: sweep %v, graph %v", in.Jobs, got, want)
		}
		checkComponentOrders(t, in)
	})
}

// checkComponentOrders checks that SplitComponentsByStart returns
// SplitComponents' pieces, each with its own ByStart order, and that
// classifying a piece over that order agrees with Classify.
func checkComponentOrders(t *testing.T, in job.Instance) {
	t.Helper()
	comps, orders := SplitComponentsByStart(in, job.ByStart(in.Jobs))
	if !equalSplits(comps, SplitComponents(in)) || len(orders) != len(comps) {
		t.Fatalf("jobs %v: SplitComponentsByStart gives %d pieces and %d orders, SplitComponents %v", in.Jobs, len(comps), len(orders), SplitComponents(in))
	}
	for i, c := range comps {
		if want := job.ByStart(c.Jobs); !slices.Equal(orders[i], want) {
			t.Fatalf("jobs %v: component %d order %v, ByStart %v", in.Jobs, i, orders[i], want)
		}
		if got, want := ClassifyByStart(c.Jobs, orders[i]), Classify(c.Jobs); got != want {
			t.Fatalf("jobs %v: component %d ClassifyByStart %v, Classify %v", in.Jobs, i, got, want)
		}
	}
}

func TestSplitComponents(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{50, 60}, [2]int64{5, 12})
	subs := SplitComponents(in)
	if len(subs) != 2 {
		t.Fatalf("SplitComponents = %v", subs)
	}
	if len(subs[0].Jobs) != 2 || subs[0].Jobs[0].ID != 0 || subs[0].Jobs[1].ID != 2 {
		t.Errorf("first component = %v", subs[0].Jobs)
	}
	if subs[0].G != 2 {
		t.Error("G not preserved")
	}
}

func TestIsClique(t *testing.T) {
	if !IsClique(inst([2]int64{0, 10}, [2]int64{5, 15}, [2]int64{9, 12})) {
		t.Error("clique not detected")
	}
	if IsClique(inst([2]int64{0, 10}, [2]int64{10, 20})) {
		t.Error("touching chain misdetected as clique")
	}
	if !IsClique(nil) {
		t.Error("empty set should be a clique")
	}
}

func TestIsProper(t *testing.T) {
	if !IsProper(inst([2]int64{0, 10}, [2]int64{5, 15}, [2]int64{8, 20})) {
		t.Error("staircase should be proper")
	}
	if IsProper(inst([2]int64{0, 10}, [2]int64{2, 8})) {
		t.Error("nested pair should not be proper")
	}
	// Equal intervals contain but not properly.
	if !IsProper(inst([2]int64{0, 10}, [2]int64{0, 10})) {
		t.Error("duplicate intervals are proper")
	}
	// Same start, different ends: proper containment.
	if IsProper(inst([2]int64{0, 10}, [2]int64{0, 12})) {
		t.Error("shared-start nested pair should not be proper")
	}
}

// Property: IsProper, which checks only neighbours in start order, agrees
// with the definition "no job properly contains another" over all pairs.
// A small time grid makes shared starts, shared ends and duplicates common.
func TestPropertyIsProperMatchesDefinition(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		jobs := make([]job.Job, int(nRaw%12))
		for i := range jobs {
			s := r.Int63n(8)
			jobs[i] = job.New(i, s, s+1+r.Int63n(6))
		}
		proper := true
		for _, a := range jobs {
			for _, b := range jobs {
				if a.Interval.ProperlyContains(b.Interval) {
					proper = false
				}
			}
		}
		return IsProper(jobs) == proper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestOneSidedness(t *testing.T) {
	if OneSidedness(inst([2]int64{0, 5}, [2]int64{0, 9})) != SharedStart {
		t.Error("shared start not detected")
	}
	if OneSidedness(inst([2]int64{1, 9}, [2]int64{4, 9})) != SharedEnd {
		t.Error("shared end not detected")
	}
	if OneSidedness(inst([2]int64{0, 5}, [2]int64{1, 9})) != NotOneSided {
		t.Error("two-sided misdetected")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		jobs []job.Job
		want Class
	}{
		{inst([2]int64{0, 10}, [2]int64{2, 8}, [2]int64{30, 40}), General},
		{inst([2]int64{0, 10}, [2]int64{30, 40}), Proper},
		{inst([2]int64{0, 10}, [2]int64{5, 15}), ProperClique},
		{inst([2]int64{0, 10}, [2]int64{2, 8}), Clique},
		{inst([2]int64{0, 10}, [2]int64{0, 15}), OneSidedClique},
		{inst([2]int64{0, 10}, [2]int64{5, 15}, [2]int64{12, 25}), Proper},
	}
	for i, c := range cases {
		if got := Classify(c.jobs); got != c.want {
			t.Errorf("case %d: Classify = %v, want %v", i, got, c.want)
		}
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{
		General: "general", Proper: "proper", Clique: "clique",
		ProperClique: "proper-clique", OneSidedClique: "one-sided-clique",
	} {
		if c.String() != want {
			t.Errorf("String(%d) = %q, want %q", c, c.String(), want)
		}
	}
}

// Property: the sweep-built adjacency matches the O(n^2) definition.
func TestPropertyAdjacencyMatchesBruteForce(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw % 24)
		jobs := make([]job.Job, n)
		for i := range jobs {
			s := r.Int63n(100)
			jobs[i] = job.New(i, s, s+1+r.Int63n(40))
		}
		g := Build(jobs)
		for i := 0; i < n; i++ {
			neighbors := map[int]bool{}
			for _, w := range g.Neighbors(i) {
				neighbors[w] = true
			}
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if jobs[i].Overlaps(jobs[j]) != neighbors[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: classification is consistent — one-sided implies clique;
// proper-clique implies both predicates.
func TestPropertyClassConsistency(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 1
		jobs := make([]job.Job, n)
		for i := range jobs {
			s := r.Int63n(20)
			jobs[i] = job.New(i, s, s+1+r.Int63n(20))
		}
		switch Classify(jobs) {
		case OneSidedClique:
			return IsClique(jobs) && OneSidedness(jobs) != NotOneSided
		case ProperClique:
			return IsClique(jobs) && IsProper(jobs)
		case Clique:
			return IsClique(jobs) && !IsProper(jobs)
		case Proper:
			return IsProper(jobs) && !IsClique(jobs)
		default:
			return !IsClique(jobs) && !IsProper(jobs)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
