package online

import (
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/safemath"
	"repro/internal/stats"
	"repro/internal/workload"
)

// postHocSummary derives the Summary a run must close with from its
// schedule alone: cost and machine statistics from the run, lower bound
// and ratio over the admitted (scheduled) jobs. It is the reference the
// incremental tracker is checked against.
func postHocSummary(r Result) Summary {
	in := r.Schedule.Instance
	admitted := job.Instance{G: in.G}
	var admittedW, rejectedW int64
	// A Result whose machine array does not match its instance cannot be
	// charged per job, so every job counts as rejected.
	complete := len(r.Schedule.Machine) == len(in.Jobs)
	for i, j := range in.Jobs {
		if complete && r.Schedule.Machine[i] != core.Unscheduled {
			admitted.Jobs = append(admitted.Jobs, j)
			admittedW = safemath.SatAdd(admittedW, j.Weight)
		} else {
			rejectedW = safemath.SatAdd(rejectedW, j.Weight)
		}
	}
	var lb int64
	if len(admitted.Jobs) > 0 {
		lb = admitted.LowerBound()
	}
	return Summary{
		Strategy:       r.Strategy,
		Arrivals:       len(in.Jobs),
		Admitted:       len(admitted.Jobs),
		Rejected:       len(in.Jobs) - len(admitted.Jobs),
		AdmittedWeight: admittedW,
		RejectedWeight: rejectedW,
		Cost:           r.Cost,
		MachinesOpened: r.MachinesOpened,
		PeakOpen:       r.PeakOpen,
		LowerBound:     lb,
		Ratio:          stats.Ratio(r.Cost, lb),
	}
}

// feedSession offers every job of an arrival-ordered instance and
// returns the events plus the closing summary.
func feedSession(t *testing.T, in job.Instance, st Strategy) ([]Event, Summary) {
	t.Helper()
	sess, err := NewSession(in.G, st)
	if err != nil {
		t.Fatal(err)
	}
	events := make([]Event, 0, len(in.Jobs))
	for _, j := range in.SortedByStart().Jobs {
		ev, err := sess.Offer(j)
		if err != nil {
			t.Fatalf("%s: offer %v: %v", st.Name(), j, err)
		}
		events = append(events, ev)
	}
	return events, sess.Summary()
}

// TestSessionMatchesReplay is the heart of the streaming story: feeding
// arrivals one at a time must commit exactly the placements a whole-
// instance Replay commits, and the incremental cost/bound/ratio tracking
// must land on the post-hoc numbers — for every strategy, including the
// rejecting budgeted one.
func TestSessionMatchesReplay(t *testing.T) {
	cfg := workload.Config{N: 120, G: 4, MaxTime: 800, MaxLen: 60}
	for seed := int64(1); seed <= 5; seed++ {
		in := workload.WeightedArrivals(seed, cfg)
		budget := in.LowerBound() * 3 / 2
		cases := []struct {
			session Strategy
			replay  Strategy
		}{
			{Naive(), Naive()},
			{FirstFit(), FirstFit()},
			{Buckets(), Buckets()},
			{BestFit(), BestFit()},
			{Budgeted(budget), Budgeted(budget)},
		}
		for _, c := range cases {
			events, sum := feedSession(t, in, c.session)
			res, err := Replay(in, c.replay)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.replay.Name(), err)
			}
			if want := postHocSummary(res); sum != want || res.Summary != want {
				t.Errorf("seed %d %s: session summary %+v, replay summary %+v, want post-hoc summary %+v", seed, c.session.Name(), sum, res.Summary, want)
			}
			if sum.Cost != res.Schedule.Cost() {
				t.Errorf("seed %d %s: incremental cost %d, schedule costs %d", seed, c.session.Name(), sum.Cost, res.Schedule.Cost())
			}
			last := events[len(events)-1]
			if last.Cost != sum.Cost || last.LowerBound != sum.LowerBound || last.Ratio != sum.Ratio {
				t.Errorf("seed %d %s: last event telemetry %+v disagrees with summary %+v", seed, c.session.Name(), last, sum)
			}
			// Per-event machine ids must reproduce the replay's committed
			// assignment (rejections included).
			byID := map[int]int{}
			for i, j := range in.Jobs {
				if res.Schedule.Machine[i] != core.Unscheduled {
					byID[j.ID] = res.Schedule.Machine[i]
				} else {
					byID[j.ID] = RejectJob
				}
			}
			for _, ev := range events {
				if byID[ev.JobID] != ev.Machine {
					t.Fatalf("seed %d %s: job %d streamed to machine %d, replay committed %d",
						seed, c.session.Name(), ev.JobID, ev.Machine, byID[ev.JobID])
				}
			}
		}
	}
}

// TestRatioTrackerMatchesPostHocBound cross-checks the incremental
// Observation 2.1 bound against Instance.LowerBound on every prefix.
func TestRatioTrackerMatchesPostHocBound(t *testing.T) {
	in := workload.Arrivals(7, workload.Config{N: 60, G: 3, MaxTime: 300, MaxLen: 40})
	tr := NewRatioTracker(in.G)
	prefix := job.Instance{G: in.G}
	for _, j := range in.Jobs {
		tr.Observe(j.Interval, 0)
		prefix.Jobs = append(prefix.Jobs, j)
		if got, want := tr.LowerBound(), prefix.LowerBound(); got != want {
			t.Fatalf("after %d arrivals: incremental bound %d, post-hoc %d", len(prefix.Jobs), got, want)
		}
	}
}

func TestSessionRejectsOutOfOrderArrivals(t *testing.T) {
	sess, err := NewSession(2, FirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Offer(job.New(0, 10, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Offer(job.New(1, 5, 15)); err == nil {
		t.Error("arrival starting before the stream clock was accepted")
	}
}

func TestSessionRejectsInvalidArrivals(t *testing.T) {
	sess, err := NewSession(2, FirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Offer(job.Job{ID: 0, Weight: 1}); err == nil {
		t.Error("empty interval accepted")
	}
	weightless := job.New(1, 0, 5)
	weightless.Weight = 0
	if _, err := sess.Offer(weightless); err == nil {
		t.Error("weight 0 accepted")
	}
}

func TestBestFitPrefersCheapestExtension(t *testing.T) {
	// Machine 0 carries [0,10) and [5,12) (both threads of g = 2, busy
	// until 12); [6,40) fits neither thread and opens machine 1. The
	// probe [11,30) then fits machine 0 on its freed first thread at a
	// busy-time extension of 18, or machine 1's free thread inside its
	// already-paid busy period at no cost. FirstFit takes the
	// lower-numbered machine and pays; BestFit takes the free placement.
	in := job.NewInstance(2,
		[2]int64{0, 10},
		[2]int64{5, 12},
		[2]int64{6, 40},
		[2]int64{11, 30},
	)
	ff := replayOrFatal(t, in, FirstFit())
	bf := replayOrFatal(t, in, BestFit())
	if m := ff.Schedule.Machine; m[3] != m[0] {
		t.Fatalf("firstfit assignments %v, want the probe on machine of job 0", m)
	}
	if m := bf.Schedule.Machine; m[3] != m[2] {
		t.Errorf("bestfit assignments %v, want the probe tucked into job 2's busy period", m)
	}
	if bf.Cost >= ff.Cost {
		t.Errorf("bestfit cost %d, want below firstfit %d", bf.Cost, ff.Cost)
	}
}

func TestBudgetedNeverOverspendsAndRejects(t *testing.T) {
	cfg := workload.Config{N: 200, G: 3, MaxTime: 600, MaxLen: 50}
	in := workload.WeightedArrivals(3, cfg)
	// A budget well under the unconstrained cost forces rejections.
	unconstrained := replayOrFatal(t, in, BestFit())
	budget := unconstrained.Cost / 3
	res := replayOrFatal(t, in, Budgeted(budget))
	if res.Cost > budget {
		t.Errorf("budgeted cost %d exceeds budget %d", res.Cost, budget)
	}
	if res.Rejected == 0 {
		t.Error("budget at a third of the unconstrained cost rejected nothing")
	}
	if res.Rejected+res.Schedule.Throughput() != len(in.Jobs) {
		t.Errorf("rejected %d + scheduled %d != %d arrivals", res.Rejected, res.Schedule.Throughput(), len(in.Jobs))
	}
	var totalW int64
	for _, j := range in.Jobs {
		totalW += j.Weight
	}
	if res.AdmittedWeight+res.RejectedWeight != totalW {
		t.Errorf("admitted weight %d + rejected %d != total %d", res.AdmittedWeight, res.RejectedWeight, totalW)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Errorf("budgeted schedule invalid: %v", err)
	}
}

func TestBudgetedUnlimitedMatchesBestFit(t *testing.T) {
	in := workload.WeightedArrivals(11, workload.Config{N: 150, G: 4, MaxTime: 700, MaxLen: 60})
	bf := replayOrFatal(t, in, BestFit())
	b := replayOrFatal(t, in, Budgeted(0))
	if b.Cost != bf.Cost || b.Rejected != 0 || b.MachinesOpened != bf.MachinesOpened {
		t.Errorf("unlimited budgeted run (cost %d, rejected %d, machines %d) diverges from bestfit (cost %d, machines %d)",
			b.Cost, b.Rejected, b.MachinesOpened, bf.Cost, bf.MachinesOpened)
	}
}

// TestBudgetedPrefersHeavyArrivals pins the weighted admission rule's
// direction: with identical intervals, a heavier job may claim more of
// the remaining budget than a light one.
func TestBudgetedPrefersHeavyArrivals(t *testing.T) {
	mk := func(w int64) job.Job {
		j := job.New(0, 0, 80)
		j.Weight = w
		return j
	}
	// Budget 90, arrivals of cost 80: the first is affordable
	// (80·1 ≤ 90·1); a second identical one faces remaining budget 10
	// against admitted weight 1 (80·2 > 10·1) and must be rejected.
	st := Budgeted(90)
	if idx, _ := st.Pick(nil, mk(1)); idx == RejectJob {
		t.Fatal("first affordable arrival rejected")
	}
	if idx, _ := st.Pick(nil, mk(1)); idx != RejectJob {
		t.Error("unaffordable second arrival admitted")
	}
	// Direction: budget 100, first job of weight 1 and cost 80 admitted
	// leaves remaining 20, admitted weight 1. A weight-1 job of cost 15
	// needs 15·2 ≤ 20·1 — rejected; a weight-9 job of the same cost needs
	// 15·10 ≤ 20·9 — admitted.
	a := Budgeted(100)
	a.Pick(nil, mk(1))
	jLight := job.New(1, 80, 95)
	jLight.Weight = 1
	if idx, _ := a.Pick(nil, jLight); idx != RejectJob {
		t.Error("light marginal arrival admitted against a drained budget")
	}
	b := Budgeted(100)
	b.Pick(nil, mk(1))
	jHeavy := job.New(1, 80, 95)
	jHeavy.Weight = 9
	if idx, _ := b.Pick(nil, jHeavy); idx == RejectJob {
		t.Error("heavy arrival rejected though its weight share covers the marginal cost")
	}
}
