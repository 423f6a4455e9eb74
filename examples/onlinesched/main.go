// Command onlinesched demonstrates online scheduling through the Solver
// API and the comparison facade: an arrival stream replayed through the
// registered strategies, the adversarial Ω(g) family, and a
// flexible-window replay.
package main

import (
	"context"
	"fmt"
	"log"

	busytime "repro"
)

func main() {
	ctx := context.Background()

	// A random arrival-ordered stream. KindOnline replays it through a
	// registered strategy; auto mode picks the strongest one.
	in := busytime.GenerateArrivals(7, busytime.WorkloadConfig{N: 16, G: 3, MaxTime: 120, MaxLen: 30})
	res, err := busytime.NewSolver().Solve(ctx, busytime.Request{Instance: in, Kind: busytime.KindOnline})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solver online run: %s cost=%d opened=%d peak=%d\n",
		res.Algorithm, res.Cost, res.MachinesOpened, res.PeakOpen)

	// CompareOnline measures every strategy against the offline
	// algorithms and the exact oracle on the same stream.
	var strategies []busytime.OnlineStrategy
	for _, a := range busytime.Algorithms() {
		if a.Kind == busytime.KindOnline {
			strategies = append(strategies, a.NewStrategy())
		}
	}
	reports, err := busytime.CompareOnline(in, strategies...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("arrival stream: n=%d g=%d offline=%d (%s) exact=%d\n",
		len(in.Jobs), in.G, reports[0].OfflineCost, reports[0].OfflineAlg, reports[0].ExactCost)
	for _, r := range reports {
		fmt.Printf("  %-16s cost=%-4d machines=%-3d ratio vs exact=%.3f\n",
			r.Strategy, r.Cost, r.Machines, r.VsExact())
	}

	// The lower-bound stream: FirstFit pays ~g times the optimum.
	adv, err := busytime.GenerateAdversarialOnline(3, 30)
	if err != nil {
		log.Fatal(err)
	}
	advRes, err := busytime.NewSolver(busytime.WithAlgorithm("online-firstfit")).
		Solve(ctx, busytime.Request{Instance: adv, Kind: busytime.KindOnline})
	if err != nil {
		log.Fatal(err)
	}
	opt, err := busytime.NewSolver(busytime.WithAlgorithm("exact")).
		Solve(ctx, busytime.Request{Instance: adv})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adversarial g=3: firstfit=%d exact=%d ratio=%.3f\n",
		advRes.Cost, opt.Cost, float64(advRes.Cost)/float64(opt.Cost))

	// Flexible jobs: StartAligned tucks a unit job into the busy period a
	// long job already pays for.
	flex := []busytime.FlexJob{
		busytime.NewFlexJob(0, 0, 100, 100),
		busytime.NewFlexJob(1, 10, 200, 5),
	}
	firstFit, err := busytime.LookupAlgorithmKind(busytime.KindOnline, "online-firstfit")
	if err != nil {
		log.Fatal(err)
	}
	fres, err := busytime.ReplayFlexible(2, flex, busytime.StartAligned(), firstFit.NewStrategy())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flexible: %s cost=%d machines=%d (job 1 committed to %v)\n",
		fres.Strategy, fres.Cost, fres.MachinesOpened, fres.Schedule.Instance.Jobs[1].Interval)
}
