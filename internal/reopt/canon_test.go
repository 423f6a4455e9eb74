package reopt_test

import (
	"testing"

	"repro/internal/conformance"
	"repro/internal/igraph"
	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/reopt"
	"repro/internal/workload"
)

// classes under test: one seeded instance per conformance class family,
// the same generators the conformance harness walks.
func classInstances(t *testing.T) map[string]job.Instance {
	t.Helper()
	cfg := workload.Config{N: 24, G: 3, MaxTime: 300, MaxLen: 40}
	out := map[string]job.Instance{}
	for _, class := range []igraph.Class{
		igraph.General, igraph.Proper, igraph.Clique, igraph.ProperClique, igraph.OneSidedClique,
	} {
		out[class.String()] = conformance.GenerateClass(7, class, cfg)
	}
	return out
}

// renumberIDs relabels every job ID (a pure renaming; schedules and
// costs cannot depend on it).
func renumberIDs(in job.Instance) job.Instance {
	out := in.Clone()
	for i := range out.Jobs {
		out.Jobs[i].ID = 1000 + 7*out.Jobs[i].ID
	}
	return out
}

// TestFingerprintMetamorphic asserts the canonical-form quotient: the
// conformance harness's equivalence transformations — job permutation,
// uniform time translation, ID renumbering, and their compositions —
// preserve the fingerprint.
func TestFingerprintMetamorphic(t *testing.T) {
	for name, in := range classInstances(t) {
		fp := reopt.Fingerprint(in)
		variants := map[string]job.Instance{
			"permuted":   conformance.Permute(in),
			"translated": conformance.Translate(in, 1217),
			"renumbered": renumberIDs(in),
			"composed":   renumberIDs(conformance.Translate(conformance.Permute(in), -341)),
		}
		for vname, v := range variants {
			if got := reopt.Fingerprint(v); got != fp {
				t.Errorf("%s: fingerprint changed under %s: %s -> %s", name, vname, fp, got)
			}
		}
	}
}

// TestFingerprintDistinguishes asserts the other direction: genuinely
// different instances — an endpoint moved, a weight changed, a job
// added or dropped, a different capacity — fingerprint differently.
func TestFingerprintDistinguishes(t *testing.T) {
	in := workload.General(11, workload.Config{N: 20, G: 3, MaxTime: 200, MaxLen: 30})
	fp := reopt.Fingerprint(in)

	variants := map[string]func() job.Instance{
		"endpoint moved": func() job.Instance {
			out := in.Clone()
			iv := out.Jobs[4].Interval
			out.Jobs[4].Interval = interval.New(iv.Start, iv.End+1)
			return out
		},
		"weight changed": func() job.Instance {
			out := in.Clone()
			out.Jobs[2].Weight = 5
			return out
		},
		"demand changed": func() job.Instance {
			out := in.Clone()
			out.Jobs[3].Demand = 2
			return out
		},
		"job dropped": func() job.Instance {
			out := in.Clone()
			out.Jobs = out.Jobs[:len(out.Jobs)-1]
			return out
		},
		"job added": func() job.Instance {
			out := in.Clone()
			out.Jobs = append(out.Jobs, job.New(999, 5, 25))
			return out
		},
		"capacity changed": func() job.Instance {
			out := in.Clone()
			out.G = in.G + 1
			return out
		},
		"non-uniform shift": func() job.Instance {
			out := conformance.Translate(in, 50)
			iv := out.Jobs[0].Interval
			out.Jobs[0].Interval = interval.New(iv.Start-50, iv.End-50)
			return out
		},
	}
	for name, mk := range variants {
		v := mk()
		if got := reopt.Fingerprint(v); got == fp {
			t.Errorf("%s: fingerprint collision %s", name, fp)
		}
	}
}

// TestFingerprintScope: solvers pinned to different algorithms must not
// share cache entries.
func TestFingerprintScope(t *testing.T) {
	in := workload.General(3, workload.Config{N: 10, G: 2, MaxTime: 100, MaxLen: 20})
	jobs, _ := reopt.Canonical(in)
	if reopt.FingerprintCanon(in.G, jobs, "") == reopt.FingerprintCanon(in.G, jobs, "first-fit") {
		t.Fatal("scoped fingerprints collide")
	}
}

// TestFingerprintDigests pins the digest bytes: every result ID embeds
// the first 12 hex digits of its fingerprint, so a change to the hashed
// words, their order or their encoding would break every cached ID a
// client holds.
func TestFingerprintDigests(t *testing.T) {
	few := job.Instance{G: 3, Jobs: []job.Job{
		{ID: 0, Interval: interval.Interval{Start: 5, End: 12}, Weight: 2, Demand: 1},
		{ID: 1, Interval: interval.Interval{Start: 3, End: 9}, Weight: 1, Demand: 2},
		{ID: 2, Interval: interval.Interval{Start: 5, End: 12}, Weight: 4, Demand: 3},
		{ID: 3, Interval: interval.Interval{Start: 20, End: 21}, Weight: 7, Demand: 1},
	}}
	cases := []struct {
		in    job.Instance
		scope string
		want  string
	}{
		{job.Instance{G: 2}, "", "4c13d75eafdf26e19f48550bd104be236f9ed89c85012d0242ba4d1bb889542e"},
		{job.Instance{G: 2}, "first-fit", "960ab6418c6a9c0ee41a869d4fa084b6acf1b37005b6edd95b5c3f3060b15a9d"},
		{few, "", "e245d5ef0a0f93511b1306f3e35146ab2e743e820619b20ebaeb3c9ee6780311"},
		{few, "first-fit", "31726f695d7083609dd12c1e9628056c798c0fc204b5a35c374256bfce243e95"},
	}
	for _, c := range cases {
		jobs, _ := reopt.Canonical(c.in)
		if got := reopt.FingerprintCanon(c.in.G, jobs, c.scope); got != c.want {
			t.Errorf("%d jobs, scope %q: digest %s, want %s", len(c.in.Jobs), c.scope, got, c.want)
		}
		if c.scope == "" && reopt.Fingerprint(c.in) != c.want {
			t.Errorf("%d jobs: Fingerprint %s, want %s", len(c.in.Jobs), reopt.Fingerprint(c.in), c.want)
		}
	}
}

func TestSymDiff(t *testing.T) {
	a := job.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15}, [2]int64{8, 20})
	b := job.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15}, [2]int64{9, 20})
	ca, _ := reopt.Canonical(a)
	cb, _ := reopt.Canonical(b)
	if d := reopt.SymDiff(ca, cb, -1); d != 2 {
		t.Fatalf("SymDiff = %d, want 2 (one job replaced)", d)
	}
	if d := reopt.SymDiff(ca, ca, -1); d != 0 {
		t.Fatalf("SymDiff(a, a) = %d, want 0", d)
	}
	if d := reopt.SymDiff(ca, cb[:2], -1); d != 1 {
		t.Fatalf("SymDiff against truncated = %d, want 1", d)
	}
	// The early-abort limit still reports a value above the limit.
	if d := reopt.SymDiff(ca, cb, 0); d <= 0 {
		t.Fatalf("SymDiff with limit 0 = %d, want > 0", d)
	}
}
