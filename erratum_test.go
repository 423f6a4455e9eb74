package busytime_test

import (
	"context"
	"testing"

	busytime "repro"
)

// lemma32Bound is the approximation factor Lemma 3.2 of the paper claims
// for the clique set-cover algorithm: g·H_g/(H_g + g − 1).
func lemma32Bound(g int) float64 {
	h := 0.0
	for i := 1; i <= g; i++ {
		h += 1 / float64(i)
	}
	return float64(g) * h / (h + float64(g) - 1)
}

// harmonic is H_g, the proven factor the registry claims instead.
func harmonic(g int) float64 {
	h := 0.0
	for i := 1; i <= g; i++ {
		h += 1 / float64(i)
	}
	return h
}

// TestLemma32Erratum documents the Lemma 3.2 gap as a paper erratum with
// two parametric families of 2-job counterexamples (see the README
// "Paper erratum" section). The shipped CliqueSetCover implements the
// modified-weight partition step of the paper, whose g·H_g/(H_g+g−1)
// charging argument does not carry over: g·span − len is not monotone
// under subsets. Every family member must
//
//	(a) exceed the paper's claimed Lemma 3.2 bound — the erratum —
//	(b) while respecting the classical H_g set-cover bound the registry
//	    claims instead, so the conformance harness stays sound.
//
// Both families are dilation-closed: scaling all coordinates by k scales
// cost and OPT alike, so the violating ratio is constant in k.
func TestLemma32Erratum(t *testing.T) {
	type family struct {
		name string
		// spans builds the 2-job clique at scale k. Job order matters:
		// the greedy cover is order-sensitive, and the violating shapes
		// list the job that seeds the bad cover first.
		spans func(k int64) [][2]int64
		ratio float64 // expected cost/OPT, constant across scales
	}
	families := []family{
		{
			// A short job nested at the tail of a long one: the modified
			// weight g·span − len makes the singleton {long} cheaper than
			// the pair, so the cover pays span(long) + span(short).
			name:  "nested-tail",
			spans: func(k int64) [][2]int64 { return [][2]int64{{0, 10 * k}, {7 * k, 10 * k}} },
			ratio: 13.0 / 10.0,
		},
		{
			// The fuzzer's pinned find (seed-setcover-h-g-ratio), scaled:
			// a short job overhanging the long job's tail.
			name:  "pinned-overhang",
			spans: func(k int64) [][2]int64 { return [][2]int64{{7 * k, 11 * k}, {0, 10 * k}} },
			ratio: 14.0 / 11.0,
		},
	}

	const g = 2
	ctx := context.Background()
	setCover := busytime.NewSolver(busytime.WithAlgorithm("clique-set-cover"))
	oracle := busytime.NewSolver(busytime.WithAlgorithm("exact"))
	claimed := lemma32Bound(g) // 1.2 at g = 2
	proven := harmonic(g)      // 1.5 at g = 2
	for _, fam := range families {
		for k := int64(1); k <= 6; k++ {
			in := busytime.NewInstance(g, fam.spans(k)...)
			if class := busytime.Classify(in.Jobs); class != busytime.ClassClique && class != busytime.ClassProperClique && class != busytime.ClassOneSidedClique {
				t.Fatalf("%s k=%d: class %s is not a clique; the family is malformed", fam.name, k, class)
			}
			res, err := setCover.Solve(ctx, busytime.Request{Instance: in})
			if err != nil {
				t.Fatalf("%s k=%d: %v", fam.name, k, err)
			}
			sch := res.Schedule
			if err := sch.Validate(); err != nil {
				t.Fatalf("%s k=%d: invalid schedule: %v", fam.name, k, err)
			}
			opt, err := oracle.Solve(ctx, busytime.Request{Instance: in})
			if err != nil {
				t.Fatalf("%s k=%d: oracle: %v", fam.name, k, err)
			}
			cost, optCost := sch.Cost(), opt.Cost
			ratio := float64(cost) / float64(optCost)

			// (a) The erratum: the paper's Lemma 3.2 bound is violated.
			if float64(cost) <= claimed*float64(optCost)+1e-9 {
				t.Errorf("%s k=%d: cost %d, OPT %d (ratio %.4f) no longer violates the Lemma 3.2 bound %.4f — erratum fixed? update README and the registry guarantee",
					fam.name, k, cost, optCost, ratio, claimed)
			}
			// (b) The proven H_g bound the registry claims instead holds.
			if float64(cost) > proven*float64(optCost)+1e-9 {
				t.Errorf("%s k=%d: cost %d exceeds even the H_g bound %.4f·%d — the registry guarantee is wrong too",
					fam.name, k, cost, proven, optCost)
			}
			// The family's ratio is dilation-invariant.
			if diff := ratio - fam.ratio; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s k=%d: ratio %.6f, want the scale-invariant %.6f", fam.name, k, ratio, fam.ratio)
			}
		}
	}
}
