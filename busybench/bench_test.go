package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/reopt"
	"repro/internal/setcover"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		xs   []int64
		p    float64
		want int64
		ok   bool
	}{
		{hundred, 0.50, 50, true},
		{hundred, 0.01, 1, true},
		{hundred, 0.90, 90, true},
		{hundred, 0.99, 99, false}, // one sample beyond, not ten
		{hundred, 1.00, 100, false},
		{[]int64{7}, 0.5, 7, false},
		{nil, 0.5, 0, false},
	} {
		got, ok := percentile(tc.xs, tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, %v) = %d, %v; want %d, %v", len(tc.xs), tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileTailRule(t *testing.T) {
	// p99 needs at least 1000 samples: 10 lie beyond rank 990.
	for _, tc := range []struct {
		n  int
		ok bool
	}{{999, false}, {1000, true}, {1099, true}, {5000, true}} {
		xs := make([]int64, tc.n)
		for i := range xs {
			xs[i] = int64(i)
		}
		got, ok := percentile(xs, 0.99)
		if ok != tc.ok {
			t.Errorf("n=%d: p99 supported = %v, want %v", tc.n, ok, tc.ok)
		}
		if beyond := tc.n - 1 - int(got); ok && beyond < minTail {
			t.Errorf("n=%d: %d samples beyond p99", tc.n, beyond)
		}
	}
}

func TestGroupLatencies(t *testing.T) {
	done := make([]completion, 2500)
	for i := range done {
		done[i] = completion{at: int64(i), jobs: 1, lat: int64(i % 1250)}
	}
	vals, _, ok := groupLatencies(done, 0.99, 1000, nil, nil)
	if len(vals) != 2 || !ok {
		t.Fatalf("2500 samples: %d groups, ok %v; want 2 supported groups", len(vals), ok)
	}
	// Each group holds latencies 0..1249; rank ⌈0.99·1250⌉ = 1238.
	for _, v := range vals {
		if v != 1237 {
			t.Errorf("group p99 = %v, want 1237", v)
		}
	}
	if vals, _, ok := groupLatencies(done[:999], 0.99, 1000, nil, nil); len(vals) != 0 || ok {
		t.Errorf("999 samples: %d groups, ok %v; want none", len(vals), ok)
	}
	if vals, _, _ := groupLatencies(make([]completion, 50_000), 0.99, 1000, nil, nil); len(vals) != maxGroups {
		t.Errorf("50000 samples: %d groups, want at most %d", len(vals), maxGroups)
	}
}

func TestStealCorrection(t *testing.T) {
	// One job per millisecond for a second, except that the host steals
	// half the CPU time in [300 ms, 500 ms): there the program completes
	// every other job.
	var done []completion
	for ms := int64(0); ms < 1000; ms++ {
		if ms >= 300 && ms < 500 && ms%2 == 1 {
			continue
		}
		done = append(done, completion{at: ms * 1e6, jobs: 1, lat: 1e6})
	}
	stolen := func(from, to int64) float64 {
		if from >= 300e6 && to <= 500e6 {
			return 0.5
		}
		return 0
	}
	for w, r := range windowRates(done, 1e9, stolen) {
		if math.Abs(r-1000) > 1e-6 {
			t.Errorf("window %d: corrected rate %v, want 1000", w, r)
		}
	}
	raw := windowRates(done, 1e9, nil)
	if raw[3] != 500 || raw[0] != 1000 {
		t.Errorf("uncorrected rates %v, want 500 in the stolen windows", raw)
	}
	// A window that lost nearly everything is charged at most maxStolen.
	if g := granted(func(int64, int64) float64 { return 0.99 }, 0, 1); g != 1-maxStolen {
		t.Errorf("granted = %v, want %v", g, 1-maxStolen)
	}
}

func TestUnstalledLatencies(t *testing.T) {
	// Requests take 1 ms, except in [300 ms, 500 ms), where the host
	// takes a third of one CPU's time and the requests caught on it take
	// 1.5 ms. Each is charged the time stolen during its own flight.
	var done []completion
	for ms := int64(0); ms < 1000; ms++ {
		lat := int64(1e6)
		if ms >= 300 && ms < 500 {
			lat = 1.5e6
		}
		done = append(done, completion{at: ms*1e6 + lat, jobs: 1, lat: lat})
	}
	stall := func(from, to int64) int64 {
		lo, hi := max(from, 300e6), min(to, 500e6)
		return max(hi-lo, 0) / 3
	}
	for _, p := range []float64{0.5, 0.99} {
		vals, _, _ := groupLatencies(done, p, 100, stall, nil)
		for g, v := range vals {
			if v != 1e6 {
				t.Errorf("group %d: unstalled p%v = %v, want 1e6", g, 100*p, v)
			}
		}
	}
	if vals, _, _ := groupLatencies(done, 0.99, 1000, nil, nil); vals[0] != 1.5e6 {
		t.Errorf("raw p99 = %v, want 1.5e6", vals[0])
	}
	// A flight is charged at most maxStolen of its latency.
	if got := unstalled(completion{at: 10, lat: 10}, func(int64, int64) int64 { return 10 }); got != 5 {
		t.Errorf("unstalled = %d, want 5", got)
	}
}

func TestQuietHalf(t *testing.T) {
	// Five groups: the three the host stole least from, in group order.
	vals := []float64{10, 20, 30, 40, 50}
	shares := []float64{0.3, 0, 0.1, 0, 0.2}
	if got := quietHalf(vals, shares); !reflect.DeepEqual(got, []float64{20, 30, 40}) {
		t.Errorf("quietHalf = %v, want [20 30 40]", got)
	}
	if got := quietHalf(nil, nil); got != nil {
		t.Errorf("no groups: quietHalf = %v, want none", got)
	}
	if got := quietHalf([]float64{7}, []float64{0.9}); !reflect.DeepEqual(got, []float64{7}) {
		t.Errorf("one group: quietHalf = %v, want [7]", got)
	}
	// Ties at the limit are all kept: a run without steal keeps every
	// group, not the earliest half.
	if got := quietHalf(vals, make([]float64, 5)); !reflect.DeepEqual(got, vals) {
		t.Errorf("no steal: quietHalf = %v, want %v", got, vals)
	}
	if got := quietHalf(vals, []float64{0.1, 0.1, 0.2, 0.1, 0.1}); !reflect.DeepEqual(got, []float64{10, 20, 40, 50}) {
		t.Errorf("ties: quietHalf = %v, want [10 20 40 50]", got)
	}
	// The groups' shares come from the stolen function over each group's
	// flights.
	done := make([]completion, 200)
	for i := range done {
		done[i] = completion{at: int64(i+1) * 10, jobs: 1, lat: 10}
	}
	stolen := func(from, to int64) float64 {
		if from >= 1000 {
			return 0.25
		}
		return 0
	}
	if _, shares, _ := groupLatencies(done, 0.5, 100, nil, stolen); !reflect.DeepEqual(shares, []float64{0, 0.25}) {
		t.Errorf("group shares = %v, want [0 0.25]", shares)
	}
}

func TestStealSampler(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := &stealSampler{samples: []stealSample{
		{at: t0, ticks: []int64{0, 0, 0, 0}},
		{at: t0.Add(100 * time.Millisecond), ticks: []int64{20, 4, 4, 0}},
		{at: t0.Add(200 * time.Millisecond), ticks: []int64{40, 4, 4, 0}},
	}}
	if got := s.share(t0, t0.Add(200*time.Millisecond)); got != 0.1 {
		t.Errorf("share over both readings = %v, want 0.1", got)
	}
	// Half of the first interval: the counters are interpolated.
	if got := s.share(t0, t0.Add(50*time.Millisecond)); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("share over half an interval = %v, want 0.2", got)
	}
	if got := s.stall(t0, t0.Add(50*time.Millisecond)); got != 2*tickNS {
		t.Errorf("stall = %v, want two ticks", got)
	}
	if got := s.share(t0.Add(100*time.Millisecond), t0.Add(300*time.Millisecond)); got != 0 {
		t.Errorf("share past the last reading = %v, want 0", got)
	}
	if ticks, ok := cpuTicks(); ok && len(ticks) < 3 {
		t.Errorf("cpuTicks = %v: want total, steal and one counter per CPU", ticks)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "batch", Parent: -1, Start: 0, End: 100},
		{Name: "item", Parent: 0, Start: 10, End: 40},
		{Name: "item", Parent: 0, Start: 30, End: 60},    // overlaps the first item
		{Name: "item", Parent: 0, Start: 90, End: 120},   // runs past its parent
		{Name: "inner", Parent: 1, Start: 20, End: 25},   // grandchild
		{Name: "inner", Parent: 1, Start: 22, End: 24},   // nested in its sibling
		{Name: "orphan", Parent: -1, Start: 5, End: 105}, // a second root
	}
	want := []int64{
		100 - (50 + 10), // [10,60) ∪ [90,100) subtracted once
		30 - 5,
		30,
		30,
		5,
		2,
		100,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	rows := rollup(spans)
	if r := rows["item"]; r.Calls != 3 || r.TotalNS != 90 || r.SelfNS != 85 {
		t.Errorf("item rollup = %+v, want 3 calls, 90 total, 85 self", *r)
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {0, 10}}, 10},
		{[][2]int64{{5, 8}, {0, 10}}, 10},
		{[][2]int64{{0, 3}, {3, 6}}, 6},
		{[][2]int64{{0, 3}, {4, 6}}, 5},
	} {
		if got := unionLen(tc.ivs); got != tc.want {
			t.Errorf("unionLen(%v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}

func TestEdgesOfMatchesIgraph(t *testing.T) {
	for k := 0; k < 40; k++ {
		in := coldInstance(3, streamTimed, 0, k)
		if len(in.Jobs) > 1600 {
			continue // keep the reference graph small
		}
		if got, want := edgesOf(in.Jobs), int64(igraph.Build(in.Jobs).Edges()); got != want {
			t.Fatalf("request %d: edgesOf = %d, igraph = %d", k, got, want)
		}
	}
}

func TestColdMixIsStratified(t *testing.T) {
	for block := 0; block < 20; block++ {
		gs := map[int]int{}
		for slot := 0; slot < coldBlock; slot++ {
			gs[coldInstance(5, streamTimed, 1, block*coldBlock+slot).G]++
		}
		if want := map[int]int{2: 3, 4: 4, 8: 3}; !reflect.DeepEqual(gs, want) {
			t.Fatalf("block %d: g counts %v, want %v", block, gs, want)
		}
	}
}

func TestSparseDensity(t *testing.T) {
	var edges, jobs int64
	for _, fam := range []string{"general", "cloud"} {
		for s := int64(0); s < 6; s++ {
			in := sparseInstance(fam, s, 2000, 4)
			edges += edgesOf(in.Jobs)
			jobs += int64(len(in.Jobs))
		}
	}
	if perJob := float64(edges) / float64(jobs); perJob < 6 || perJob > 9 {
		t.Errorf("sparse instances have %.2f edges per job, want about 7.5", perJob)
	}
}

// No solve-cold component may send auto dispatch into a costly but
// admitted clique-set-cover enumeration: a clique component either
// enumerates few subsets or is refused by the cap.
func TestNoCostlySetCover(t *testing.T) {
	for c := int64(0); c < 2; c++ {
		for k := 0; k < 300; k++ {
			in := coldInstance(9, streamTimed, c, k)
			for _, comp := range igraph.SplitComponents(in) {
				if !igraph.IsClique(comp.Jobs) {
					continue
				}
				n := setcover.Count(len(comp.Jobs), in.G)
				if n > 100_000 && n <= core.MaxCliqueSetCoverSubsets {
					t.Fatalf("request %d/%d: %d-job clique component at g=%d enumerates %d subsets", c, k, len(comp.Jobs), in.G, n)
				}
			}
		}
	}
}

func TestResubmitEdits(t *testing.T) {
	latest := make([]job.Instance, len(batchKinds))
	for b := range latest {
		latest[b] = resubmitBase(4, 0, b)
	}
	nextID := 1 << 30
	for k := 0; k < 200; k++ {
		edits := resubmitBatch(4, 0, k, latest, &nextID)
		kinds := map[string]int{}
		for _, e := range edits {
			kinds[e.kind]++
			before := reopt.Fingerprint(latest[e.base])
			switch e.kind {
			case editExact:
				if reopt.Fingerprint(e.send) != before {
					t.Fatalf("batch %d: exact resubmission changed the canonical form", k)
				}
			case editDropEarliest:
				if len(e.send.Jobs) != len(latest[e.base].Jobs)-1 {
					t.Fatalf("batch %d: drop-earliest kept %d of %d jobs", k, len(e.send.Jobs), len(latest[e.base].Jobs))
				}
			}
			if err := e.send.Validate(); err != nil {
				t.Fatalf("batch %d %s: %v", k, e.kind, err)
			}
			latest[e.base] = e.next
		}
		want := map[string]int{}
		for _, kind := range batchKinds {
			want[kind]++
		}
		if !reflect.DeepEqual(kinds, want) {
			t.Fatalf("batch %d deals %v, want %v", k, kinds, want)
		}
	}
	for b, in := range latest {
		if n := len(in.Jobs); n < 300 || n > 2300 {
			t.Errorf("base %d drifted to %d jobs", b, n)
		}
	}
}

func TestRequestsRepeatForASeed(t *testing.T) {
	a, b := coldInstance(11, streamTimed, 1, 17), coldInstance(11, streamTimed, 1, 17)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed generated two different requests")
	}
	if reflect.DeepEqual(a, coldInstance(12, streamTimed, 1, 17)) {
		t.Fatal("two seeds generated the same request")
	}
	ga, gb := newArrivalGen(11, streamTimed, 0, 3), newArrivalGen(11, streamTimed, 0, 3)
	for i := 0; i < 100; i++ {
		if x, y := ga.next(), gb.next(); x != y {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, x, y)
		}
	}
}

// The counts the benchmark promises to repeat exactly for a seed do,
// at a small size, in both untraced and traced runs.
func TestDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon several times")
	}
	small := sizes{warmCold: 6, historySessions: 2}
	counts := map[string]int{"solve-cold": 12, "resubmit": 6, "stream-journal": 2}
	exact := []string{"quality_ratio", "igraph.edges_per_job", "online.open_machines_mean",
		"journal.bytes_per_event", "reopt.hit_share", "reopt.repair_share", "reopt.miss_share"}
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			var got []map[string]float64
			for i := 0; i < 2; i++ {
				vals := map[string]float64{}
				for _, traced := range []bool{false, true} {
					spec.setups = 1
					b := &bench{spec: spec, seed: 21, count: counts[spec.name], outDir: t.TempDir(), sizes: small}
					run := b.untraced
					if traced {
						run = b.traced
					}
					res, err := run()
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed > 0 {
						t.Fatalf("traced=%v: %d failed: %v", traced, res.Failed, res.lines)
					}
					for _, name := range exact {
						if m, ok := res.Metrics[name]; ok {
							vals[name] = m.Value
						}
					}
				}
				got = append(got, vals)
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("deterministic counts differ between runs:\n%v\n%v", got[0], got[1])
			}
			if got[0]["quality_ratio"] < 1 {
				t.Errorf("quality ratio %v below the lower bound", got[0]["quality_ratio"])
			}
		})
	}
}

// BENCHMARK.json at the repository root lists exactly the workloads and
// metrics this command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) vs %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
