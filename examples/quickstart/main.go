// Quickstart: schedule a handful of interval jobs on capacity-2 machines
// through the Solver API, minimizing total busy time, then re-solve under
// a busy-time budget.
package main

import (
	"context"
	"fmt"
	"log"
	"maps"
	"slices"

	busytime "repro"
)

func main() {
	// Four jobs given as [start, end) intervals; machines run at most
	// g = 2 jobs at a time.
	in := busytime.NewInstance(2,
		[2]int64{0, 10},
		[2]int64{5, 15},
		[2]int64{8, 20},
		[2]int64{12, 25},
	)
	ctx := context.Background()
	solver := busytime.NewSolver()

	// MinBusy: schedule everything, minimize total machine busy time.
	// The Result carries the schedule plus the algorithm used, the
	// detected class, the lower bound, and a feasibility certificate.
	res, err := solver.Solve(ctx, busytime.Request{Instance: in})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("class: %v\n", res.Class)
	fmt.Printf("algorithm: %s\n", res.Algorithm)
	fmt.Printf("busy time: %d (lower bound %d, one-machine-per-job %d, ratio-vs-LB %.3f)\n",
		res.Cost, res.LowerBound, in.TotalLen(), res.RatioVsBound)
	byMachine := res.Schedule.MachineJobs()
	for _, machine := range slices.Sorted(maps.Keys(byMachine)) {
		fmt.Printf("  machine %d runs jobs %v\n", machine, byMachine[machine])
	}
	if err := res.Certificate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("certificate: schedule is valid and within bounds")

	// MaxThroughput: a busy-time budget of 20 — how many jobs fit?
	partial, err := solver.Solve(ctx, busytime.Request{
		Instance: in, Kind: busytime.KindMaxThroughput, Budget: 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with budget %d: %d of %d jobs scheduled via %s (cost %d)\n",
		partial.Budget, partial.Scheduled, partial.N, partial.Algorithm, partial.Cost)
}
