package main

import (
	"strings"
	"testing"
)

func TestPickAlgorithms(t *testing.T) {
	all, err := pickAlgorithms("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0] != "bucket-first-fit" {
		t.Errorf("all = %v, want the three 2-D algorithms strongest-first", all)
	}
	for alias, want := range map[string]string{
		"ff2d":   "first-fit-2d",
		"bucket": "bucket-first-fit",
		"naive":  "naive-2d",
	} {
		got, err := pickAlgorithms(alias)
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s resolved to %v, want %s", alias, got, want)
		}
	}
	_, err = pickAlgorithms("bogus")
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if !strings.Contains(err.Error(), "bucket-first-fit") {
		t.Errorf("error does not list registered algorithms: %v", err)
	}
}

func TestBuildRectInstanceFamilies(t *testing.T) {
	for _, family := range []string{"rects", "fig3"} {
		in, err := buildRectInstance(family, 20, 4, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if err := in.Validate(); err != nil {
			t.Errorf("%s: %v", family, err)
		}
	}
	if _, err := buildRectInstance("nope", 20, 4, 2, 1); err == nil {
		t.Error("unknown family accepted")
	}
}
