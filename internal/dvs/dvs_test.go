package dvs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/workload"
)

func TestScaleInstanceShrinksJobs(t *testing.T) {
	in := job.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 8})
	out, err := ScaleInstance(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Jobs[0].Len() != 5 {
		t.Errorf("job 0 scaled len = %d, want 5", out.Jobs[0].Len())
	}
	if out.Jobs[1].Len() != 2 { // ceil(3/2)
		t.Errorf("job 1 scaled len = %d, want 2", out.Jobs[1].Len())
	}
	if out.Jobs[0].Start() != 0 || out.Jobs[1].Start() != 5 {
		t.Error("starts must be preserved")
	}
	// Original untouched.
	if in.Jobs[0].Len() != 10 {
		t.Error("ScaleInstance mutated input")
	}
}

func TestScaleInstanceMinimumLength(t *testing.T) {
	in := job.NewInstance(1, [2]int64{0, 3})
	out, err := ScaleInstance(in, 100)
	if err != nil {
		t.Fatal(err)
	}
	if out.Jobs[0].Len() != 1 {
		t.Errorf("scaled len = %d, want clamp to 1", out.Jobs[0].Len())
	}
}

func TestScaleInstanceRejectsSlowdown(t *testing.T) {
	if _, err := ScaleInstance(job.NewInstance(1, [2]int64{0, 5}), 0.5); err == nil {
		t.Fatal("accepted sigma < 1")
	}
}

func TestSweepBusyNonIncreasing(t *testing.T) {
	in := workload.General(9, workload.Config{N: 25, G: 3, MaxTime: 150, MaxLen: 50})
	pts, err := Sweep(in, 3, []float64{1, 1.5, 2, 3, 5}, core.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Busy > pts[i-1].Busy {
			t.Errorf("busy time increased at sigma %v: %d > %d",
				pts[i].Sigma, pts[i].Busy, pts[i-1].Busy)
		}
	}
	// At sigma = 1 energy equals busy time.
	if pts[0].Energy != float64(pts[0].Busy) {
		t.Errorf("sigma=1 energy %v != busy %d", pts[0].Energy, pts[0].Busy)
	}
}

func TestBestSpeedNearFineSweep(t *testing.T) {
	in := workload.General(4, workload.Config{N: 20, G: 2, MaxTime: 120, MaxLen: 40})
	const alpha = 3
	best, err := BestSpeed(in, alpha, 4, 0.01, core.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	// Fine sweep reference.
	var sigmas []float64
	for s := 1.0; s <= 4.0; s += 0.05 {
		sigmas = append(sigmas, s)
	}
	pts, err := Sweep(in, alpha, sigmas, core.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	fineBest := pts[0]
	for _, p := range pts {
		if p.Energy < fineBest.Energy {
			fineBest = p
		}
	}
	// Ternary search must come within 5% of the sweep optimum despite
	// rounding plateaus.
	if best.Energy > 1.05*fineBest.Energy {
		t.Errorf("BestSpeed energy %v too far above sweep optimum %v (sigma %v vs %v)",
			best.Energy, fineBest.Energy, best.Sigma, fineBest.Sigma)
	}
}

func TestBestSpeedRejectsBadMax(t *testing.T) {
	if _, err := BestSpeed(job.NewInstance(1, [2]int64{0, 5}), 3, 0.5, 0.01, core.FirstFit); err == nil {
		t.Fatal("accepted maxSigma < 1")
	}
}

// With alpha large, running faster is never worth it: best speed ~ 1.
func TestBestSpeedHighAlphaStaysSlow(t *testing.T) {
	in := workload.General(2, workload.Config{N: 15, G: 2, MaxTime: 100, MaxLen: 30})
	best, err := BestSpeed(in, 10, 4, 0.01, core.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Sweep(in, 10, []float64{1}, core.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if best.Energy > base[0].Energy*1.0001 {
		t.Errorf("alpha=10: best energy %v worse than sigma=1 energy %v", best.Energy, base[0].Energy)
	}
}
