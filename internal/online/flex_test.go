package online

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/interval"
)

// randomFlex builds a deterministic flexible workload with varying slack.
func randomFlex(seed int64, n int, maxTime, maxLen int64) []FlexJob {
	r := rand.New(rand.NewSource(seed))
	flex := make([]FlexJob, n)
	for i := range flex {
		release := r.Int63n(maxTime + 1)
		length := 1 + r.Int63n(maxLen)
		slack := r.Int63n(maxLen)
		flex[i] = NewFlexJob(i, release, release+length+slack, length)
	}
	return flex
}

func TestFlexJobValidate(t *testing.T) {
	if err := NewFlexJob(0, 0, 10, 5).Validate(); err != nil {
		t.Errorf("valid flex job rejected: %v", err)
	}
	if err := NewFlexJob(0, 0, 10, 11).Validate(); err == nil {
		t.Error("oversized flex job accepted")
	}
	if err := NewFlexJob(0, 0, 10, 0).Validate(); err == nil {
		t.Error("zero-length flex job accepted")
	}
}

func TestFlexRigidWindowEnforced(t *testing.T) {
	f := NewFlexJob(1, 10, 30, 5)
	if _, err := f.Rigid(9); err == nil {
		t.Error("start before release accepted")
	}
	if _, err := f.Rigid(26); err == nil {
		t.Error("end past deadline accepted")
	}
	j, err := f.Rigid(25)
	if err != nil {
		t.Fatal(err)
	}
	if j.Start() != 25 || j.End() != 30 || j.ID != 1 {
		t.Errorf("rigid job %v", j)
	}
}

// TestFlexReplayProperty: any flexible replay yields a valid schedule that
// assigns every job inside its window.
func TestFlexReplayProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		flex := randomFlex(seed, 40, 200, 30)
		for _, pol := range []StartPolicy{StartASAP(), StartAligned()} {
			for _, st := range strategies() {
				res, err := FlexReplay(3, flex, pol, st)
				if err != nil {
					t.Fatalf("seed %d %s+%s: %v", seed, pol.Name(), st.Name(), err)
				}
				if err := res.Schedule.Validate(); err != nil {
					t.Fatalf("seed %d %s+%s: %v", seed, pol.Name(), st.Name(), err)
				}
				if got := res.Schedule.Throughput(); got != len(flex) {
					t.Fatalf("seed %d %s+%s: scheduled %d/%d", seed, pol.Name(), st.Name(), got, len(flex))
				}
				for p, j := range res.Schedule.Instance.Jobs {
					f := flex[p]
					if j.ID != f.ID || j.Len() != f.Len || !f.Window.Contains(j.Interval) {
						t.Fatalf("seed %d %s+%s: job %v escapes flex job %+v", seed, pol.Name(), st.Name(), j, f)
					}
				}
			}
		}
	}
}

// flexGolden renders the 200 flexible replays TestFlexGolden pins, one
// line each: the committed starts, the machine array and the summary.
// StartAligned delays jobs into open busy periods, so these are the runs
// where a thread takes a job ahead of its last one.
func flexGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for seed := int64(1); seed <= 10; seed++ {
		flex := randomFlex(seed, 40, 200, 30)
		for _, g := range []int{2, 3} {
			for _, pol := range []StartPolicy{StartASAP(), StartAligned()} {
				for _, st := range []Strategy{Naive(), FirstFit(), Buckets(), BestFit(), Budgeted(400)} {
					res, err := FlexReplay(g, flex, pol, st)
					if err != nil {
						t.Fatalf("seed %d g %d %s+%s: %v", seed, g, pol.Name(), st.Name(), err)
					}
					starts := make([]int64, len(flex))
					for p, j := range res.Schedule.Instance.Jobs {
						starts[p] = j.Start()
					}
					fmt.Fprintf(&b, "seed=%d g=%d starts=%v machines=%v %+v\n", seed, g, starts, res.Schedule.Machine, res.Summary)
				}
			}
		}
	}
	return b.String()
}

// TestFlexGolden pins every placement of the flexible replays in
// flexGolden against testdata/flex.golden, byte for byte. There is no
// update flag: regenerate the file only for a deliberate change.
func TestFlexGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "flex.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := flexGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("flex.golden line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[min(i, len(wl)-1)])
		}
	}
	t.Fatalf("flex.golden: got %d lines, want %d", len(gl), len(wl))
}

func TestStartASAPMatchesRigidReplay(t *testing.T) {
	// With zero slack, flexible replay must agree with the rigid replay of
	// the induced instance.
	flex := randomFlex(2, 30, 150, 25)
	for i := range flex {
		flex[i].Window.End = flex[i].Window.Start + flex[i].Len
	}
	res, err := FlexReplay(2, flex, StartASAP(), FirstFit())
	if err != nil {
		t.Fatal(err)
	}
	rigid, err := Replay(res.Schedule.Instance, FirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != rigid.Cost || res.MachinesOpened != rigid.MachinesOpened {
		t.Errorf("flex (cost %d, %d machines) != rigid (cost %d, %d machines)",
			res.Cost, res.MachinesOpened, rigid.Cost, rigid.MachinesOpened)
	}
}

func TestStartAlignedTucksIntoOpenBusyPeriod(t *testing.T) {
	// A long job holds a machine open until 100. A flexible unit job with a
	// wide window should be delayed to finish exactly at the busy end,
	// adding no busy time, while ASAP starts it at release.
	flex := []FlexJob{
		{ID: 0, Window: interval.Interval{Start: 0, End: 100}, Len: 100},
		{ID: 1, Window: interval.Interval{Start: 10, End: 200}, Len: 5},
	}
	aligned, err := FlexReplay(2, flex, StartAligned(), FirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if j := aligned.Schedule.Instance.Jobs[1]; j.End() != 100 {
		t.Errorf("aligned start %v, want end at busy end 100", j.Interval)
	}
	if aligned.Cost != 100 || aligned.MachinesOpened != 1 {
		t.Errorf("aligned cost %d machines %d, want 100 and 1", aligned.Cost, aligned.MachinesOpened)
	}
	asap, err := FlexReplay(2, flex, StartASAP(), FirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if j := asap.Schedule.Instance.Jobs[1]; j.Start() != 10 {
		t.Errorf("asap start %v, want release 10", j.Interval)
	}
}

func TestFlexReplayRejectsBadInput(t *testing.T) {
	if _, err := FlexReplay(0, nil, StartASAP(), FirstFit()); err == nil {
		t.Error("g=0 accepted")
	}
	bad := []FlexJob{NewFlexJob(0, 0, 3, 5)}
	if _, err := FlexReplay(2, bad, StartASAP(), FirstFit()); err == nil {
		t.Error("oversized flex job accepted")
	}
	if _, err := FlexReplay(2, []FlexJob{NewFlexJob(0, 0, 10, 5)}, badPolicy{}, FirstFit()); err == nil {
		t.Error("window-violating policy accepted")
	}
}

// badPolicy commits starts outside the window.
type badPolicy struct{}

func (badPolicy) Name() string { return "bad" }

func (badPolicy) Choose(open []*Machine, f FlexJob) int64 { return f.Window.End }
