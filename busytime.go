// Package busytime is a library for interval scheduling on parallel
// machines with bounded parallelism, minimizing total machine busy time or
// maximizing throughput under a busy-time budget.
//
// It reproduces the algorithms of Mertzios, Shalom, Voloshin, Wong and
// Zaks, "Optimizing Busy Time on Parallel Machines" (IEEE IPDPS 2012;
// Theoretical Computer Science 562, 2015):
//
//   - MinBusy: schedule all jobs on capacity-g machines minimizing the sum
//     of machine busy times. Exact polynomial algorithms for one-sided
//     cliques, proper cliques, and cliques with g = 2; a (2−1/g)-
//     approximation for proper instances; a g·H_g/(H_g+g−1)-approximation
//     for cliques; the first-fit baseline for everything else.
//   - MaxThroughput: schedule a maximum subset of jobs within busy-time
//     budget T. Exact algorithms for one-sided cliques and proper cliques
//     (including a weighted variant), a 4-approximation for cliques.
//   - Two-dimensional jobs (time × day rectangles): first-fit-2d and
//     bucket-first-fit with the paper's logarithmic guarantee.
//   - Online scheduling (beyond-paper): jobs arrive over time and are
//     committed irrevocably; the online strategies replay rigid or
//     flexible-window streams, and CompareOnline reports their empirical
//     competitive ratios against the offline algorithms.
//
// The package is a facade over internal implementation packages. Its one
// entry point is the Solver: a Request names an instance and a problem
// kind, Solve is context-cancellable, and the structured Result carries
// the schedule, the algorithm used, the detected class, cost and machine
// statistics, the Observation 2.1 lower bound with the achieved ratio,
// and a Certificate() feasibility check. Quick start:
//
//	in := busytime.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15})
//	res, err := busytime.NewSolver().Solve(context.Background(),
//		busytime.Request{Instance: in})
//	fmt.Println(res.Algorithm, res.Cost, res.Certificate())
//
// Every algorithm is registered in a central registry (Algorithms,
// LookupAlgorithm, AlgorithmFor) with its name, aliases, problem kind,
// applicable instance classes and approximation guarantee. Auto dispatch
// walks it from the strongest algorithm for the detected class down, and
// WithAlgorithm and the CLI -algo flags name an algorithm through it.
package busytime

import (
	"context"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/igraph"
	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/online"
	"repro/internal/rect"
	"repro/internal/reopt"
	"repro/internal/workload"
)

// Core model types, aliased from the internal packages so values flow
// freely between the facade and internal APIs.
type (
	// Interval is a half-open time interval [Start, End) on int64 ticks.
	Interval = interval.Interval
	// Job is an interval job with optional Weight and Demand extensions.
	Job = job.Job
	// Instance is a MinBusy input (J, g).
	Instance = job.Instance
	// Schedule is a (possibly partial) job-to-machine assignment.
	Schedule = core.Schedule
	// Rect is an axis-aligned rectangle, the 2-D job shape of Section 3.4.
	Rect = rect.Rect
	// RectJob is a two-dimensional job.
	RectJob = job.RectJob
	// RectInstance is a 2-D MinBusy input.
	RectInstance = job.RectInstance
	// RectSchedule is a 2-D schedule.
	RectSchedule = core.RectSchedule
	// Class is the detected instance class used for dispatch.
	Class = igraph.Class
)

// Instance classes, from most general to most structured.
const (
	ClassGeneral        = igraph.General
	ClassProper         = igraph.Proper
	ClassClique         = igraph.Clique
	ClassProperClique   = igraph.ProperClique
	ClassOneSidedClique = igraph.OneSidedClique
)

// Unscheduled marks a job left out of a partial schedule.
const Unscheduled = core.Unscheduled

// NewJob returns a unit-weight, unit-demand job over [start, end).
func NewJob(id int, start, end int64) Job { return job.New(id, start, end) }

// NewInstance builds an instance from (start, end) pairs with capacity g.
func NewInstance(g int, spans ...[2]int64) Instance { return job.NewInstance(g, spans...) }

// Classify returns the most specific instance class of the job set.
func Classify(jobs []Job) Class { return igraph.Classify(jobs) }

// Reoptimization (beyond paper, after "Optimization and Reoptimization
// in Scheduling Problems", arXiv 1509.01630; enabled per Solver with
// WithReoptimization).
var (
	// FingerprintInstance returns the canonical-form fingerprint of an
	// instance: two instances share it exactly when they agree up to job
	// order, job IDs and a uniform time translation — the metamorphic
	// equivalence classes of the conformance harness.
	FingerprintInstance = reopt.Fingerprint
)

// Online scheduling (beyond-paper extension, after Shalom et al., "Online
// optimization of busy time on parallel machines", and Albers & van der
// Heijden, arXiv:2405.08595): jobs arrive over time and are committed to
// machines irrevocably, with busy time accruing as machines open and
// close.
type (
	// OnlineStrategy is an online placement policy; the registry builds
	// one per online algorithm (AlgorithmInfo.NewStrategy).
	OnlineStrategy = online.Strategy
	// OnlineResult is a replayed run: committed schedule plus statistics.
	OnlineResult = online.Result
	// OnlineReport measures a strategy against the offline baselines.
	OnlineReport = online.Report
	// OnlineMachine is one open machine's state, visible to strategies.
	OnlineMachine = online.Machine
	// OnlineBudgetSetter is implemented by admission-control strategies
	// that accept a busy-time budget before the first arrival.
	OnlineBudgetSetter = online.BudgetSetter
	// OnlineSession is an incremental online run fed one arrival at a
	// time — the state behind busyd's POST /v1/stream endpoint.
	OnlineSession = online.Session
	// OnlineEvent is one streamed arrival's placement with live telemetry.
	OnlineEvent = online.Event
	// OnlineSummary is a session's closing competitive-ratio report.
	OnlineSummary = online.Summary
	// OnlineRatioTracker maintains cost, Observation 2.1 bound and their
	// ratio incrementally per admitted arrival.
	OnlineRatioTracker = online.RatioTracker
	// FlexJob is a flexible job scheduled anywhere inside its window.
	FlexJob = online.FlexJob
	// StartPolicy commits a flexible job's start time at its release.
	StartPolicy = online.StartPolicy
)

var (
	// NewOnlineSession starts an incremental session for a strategy.
	NewOnlineSession = online.NewSession
	// NewOnlineRatioTracker starts an incremental ratio tracker.
	NewOnlineRatioTracker = online.NewRatioTracker
	// ReplayFlexible replays flexible jobs under a start policy.
	ReplayFlexible = online.FlexReplay
	// NewFlexJob builds a flexible job with a [release, deadline) window.
	NewFlexJob = online.NewFlexJob
	// StartASAP commits every flexible job at its release time.
	StartASAP = online.StartASAP
	// StartAligned delays a flexible job into an open busy period.
	StartAligned = online.StartAligned
)

// CompareOnline replays the instance through each strategy and reports
// each run's cost against the offline auto dispatch of NewSolver(), the
// run's own Observation 2.1 lower bound (over the arrivals it admitted,
// as Solver.Solve and streams report it) and, when the instance has at
// most exact.MaxN jobs, the exact optimum. It is the harness behind the
// competitive-ratio experiments and busysim online.
func CompareOnline(in Instance, strategies ...OnlineStrategy) ([]OnlineReport, error) {
	ctx := context.TODO()
	offline, err := NewSolver().Solve(ctx, Request{Instance: in})
	if err != nil {
		return nil, err
	}
	var exactCost int64
	hasExact := false
	if len(in.Jobs) <= exact.MaxN {
		s, err := exact.MinBusy(ctx, in)
		if err != nil {
			return nil, err
		}
		exactCost, hasExact = s.Cost(), true
	}

	reports := make([]OnlineReport, 0, len(strategies))
	for _, st := range strategies {
		res, err := online.Replay(in, st)
		if err != nil {
			return nil, err
		}
		reports = append(reports, OnlineReport{
			Strategy:    res.Strategy,
			Cost:        res.Cost,
			Machines:    res.MachinesOpened,
			PeakOpen:    res.PeakOpen,
			Rejected:    res.Rejected,
			OfflineCost: offline.Cost,
			OfflineAlg:  offline.Algorithm,
			ExactCost:   exactCost,
			HasExact:    hasExact,
			LowerBound:  res.LowerBound,
		})
	}
	return reports, nil
}

// Workload generation, re-exported for examples and downstream benchmarks.
type WorkloadConfig = workload.Config

var (
	// GenerateGeneral returns an unconstrained random instance.
	GenerateGeneral = workload.General
	// GenerateClique returns a random clique instance.
	GenerateClique = workload.Clique
	// GenerateProper returns a random proper instance.
	GenerateProper = workload.Proper
	// GenerateProperClique returns a random proper clique instance.
	GenerateProperClique = workload.ProperClique
	// GenerateOneSided returns a one-sided clique instance.
	GenerateOneSided = workload.OneSided
	// GenerateCloud returns a cloud-task workload with weights.
	GenerateCloud = workload.Cloud
	// GenerateLightpaths returns an optical-network workload.
	GenerateLightpaths = workload.Lightpaths
	// GenerateBoundedGammaRects returns a 2-D workload with bounded γ₁.
	GenerateBoundedGammaRects = workload.BoundedGammaRects
	// GenerateFigure3 builds the adversarial family of Figure 3.
	GenerateFigure3 = workload.Figure3
	// GenerateArrivals returns a general instance in arrival order.
	GenerateArrivals = workload.Arrivals
	// GenerateWeightedArrivals returns an arrival stream whose jobs carry
	// throughput weights — the input of the budgeted admission strategy.
	GenerateWeightedArrivals = workload.WeightedArrivals
	// GenerateBurstyArrivals returns an arrival stream with simultaneous
	// release bursts.
	GenerateBurstyArrivals = workload.BurstyArrivals
	// GenerateAdversarialOnline builds the Ω(g) lower-bound stream for
	// online FirstFit.
	GenerateAdversarialOnline = workload.AdversarialFirstFit
)
