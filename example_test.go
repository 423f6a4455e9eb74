package busytime_test

import (
	"context"
	"fmt"

	busytime "repro"
)

// Schedule a proper clique instance: auto dispatch selects the optimal
// O(n·g) dynamic program of Theorem 3.2.
func ExampleSolver_Solve() {
	in := busytime.NewInstance(2,
		[2]int64{0, 10},
		[2]int64{2, 12},
		[2]int64{4, 14},
		[2]int64{6, 16},
	)
	res, err := busytime.NewSolver().Solve(context.Background(), busytime.Request{Instance: in})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Algorithm)
	fmt.Println("cost:", res.Cost)
	fmt.Println("machines:", res.Machines)
	// Output:
	// find-best-consecutive
	// cost: 24
	// machines: 2
}

// Budgeted throughput on the same instance: with busy-time budget 12 only
// one machine's worth of jobs fits.
func ExampleSolver_Solve_maxThroughput() {
	in := busytime.NewInstance(2,
		[2]int64{0, 10},
		[2]int64{2, 12},
		[2]int64{4, 14},
		[2]int64{6, 16},
	)
	res, err := busytime.NewSolver().Solve(context.Background(),
		busytime.Request{Instance: in, Kind: busytime.KindMaxThroughput, Budget: 12})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Algorithm)
	fmt.Println("scheduled:", res.Scheduled, "cost:", res.Cost)
	// Output:
	// most-throughput-consecutive
	// scheduled: 2 cost: 12
}

// Clique instances with g = 2 are solved exactly by maximum-weight
// matching on the overlap graph (Lemma 3.1); WithAlgorithm pins it by
// its registered name.
func ExampleWithAlgorithm() {
	in := busytime.NewInstance(2,
		[2]int64{0, 100}, // long job
		[2]int64{40, 60}, // nested short jobs all overlap it
		[2]int64{45, 65},
		[2]int64{50, 70},
	)
	res, err := busytime.NewSolver(busytime.WithAlgorithm("clique-matching")).
		Solve(context.Background(), busytime.Request{Instance: in})
	if err != nil {
		panic(err)
	}
	fmt.Println("cost:", res.Cost)
	// Output:
	// cost: 125
}

// Instance classes drive algorithm dispatch.
func ExampleClassify() {
	oneSided := busytime.NewInstance(2, [2]int64{0, 5}, [2]int64{0, 9})
	nested := busytime.NewInstance(2, [2]int64{0, 9}, [2]int64{2, 5})
	fmt.Println(busytime.Classify(oneSided.Jobs))
	fmt.Println(busytime.Classify(nested.Jobs))
	// Output:
	// one-sided-clique
	// clique
}
