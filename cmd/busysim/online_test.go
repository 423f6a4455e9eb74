package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/workload"
)

func TestLoadOnlineFamilies(t *testing.T) {
	cfg := workload.Config{N: 8, G: 4, MaxTime: 100, MaxLen: 30}
	for _, family := range workload.Names() {
		in, err := loadOnline(&instanceFlags{family: family, seed: 1, cfg: cfg}, 0)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if len(in.Jobs) != 8 {
			t.Errorf("%s: %d jobs", family, len(in.Jobs))
		}
		if err := in.Validate(); err != nil {
			t.Errorf("%s: %v", family, err)
		}
	}
	adv, err := loadOnline(&instanceFlags{family: "adversarial", seed: 1, cfg: cfg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := adv.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := loadOnline(&instanceFlags{family: "nope", seed: 1, cfg: cfg}, 0); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestLoadOnlineFromFile(t *testing.T) {
	path := writeInstance(t, job.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15}))
	// -in wins over -workload, the adversarial family too.
	for _, family := range []string{"ignored", "adversarial"} {
		got, err := loadOnline(&instanceFlags{family: family, seed: 1, path: path}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Jobs) != 2 || got.G != 2 {
			t.Fatalf("%s: loaded %+v", family, got)
		}
	}
	if _, err := loadOnline(&instanceFlags{path: filepath.Join(t.TempDir(), "missing.json")}, 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestPickStrategies(t *testing.T) {
	for name, want := range map[string]int{
		"naive": 1, "firstfit": 1, "buckets": 1, "bestfit": 1, "budget": 1, // aliases
		"online-naive": 1, "online-firstfit": 1, "online-buckets": 1, // canonical
		"online-bestfit": 1, "online-budget": 1,
		"all": 5,
	} {
		sts, err := pickStrategies(name, 500)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sts) != want {
			t.Errorf("%s: %d strategies, want %d", name, len(sts), want)
		}
	}
	_, err := pickStrategies("bogus", 0)
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if !strings.Contains(err.Error(), "online-firstfit") {
		t.Errorf("error does not list registered strategies: %v", err)
	}
	// Naming the admission-control strategy without a budget would
	// silently degenerate to BestFit; it must be refused instead.
	if _, err := pickStrategies("online-budget", 0); err == nil {
		t.Error("online-budget accepted without -budget")
	}
	// Without a budget "all" drops the admission-control strategy rather
	// than printing a row that is silently plain BestFit.
	if sts, err := pickStrategies("all", 0); err != nil || len(sts) != 4 {
		t.Errorf("all without budget = (%d, %v), want 4 strategies", len(sts), err)
	}
}
