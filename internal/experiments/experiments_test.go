package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The experiment suite panics when a measured invariant is violated (e.g.
// E5's exact cost prediction); running a reduced version of every
// experiment doubles as an integration test across all packages.

func TestE1Optimal(t *testing.T) {
	r := E1(5)
	out := r.String()
	if !strings.Contains(out, "E1") {
		t.Fatalf("render: %s", out)
	}
	for _, row := range r.Table.Rows {
		if row[2] != "1.000" || row[3] != "1.000" {
			t.Errorf("E1 ratio row not optimal: %v", row)
		}
	}
}

func TestE2WithinBound(t *testing.T) {
	r := E2(5)
	for _, row := range r.Table.Rows {
		if row[3] > row[1] { // string compare works: same width %.3f formatting
			t.Errorf("E2 max ratio exceeds bound: %v", row)
		}
	}
}

func TestE3WithinBound(t *testing.T) {
	r := E3(5)
	for _, row := range r.Table.Rows {
		if row[3] > row[1] {
			t.Errorf("E3 BestCut max exceeds bound: %v", row)
		}
	}
}

func TestE4Optimal(t *testing.T) {
	r := E4(5)
	for _, row := range r.Table.Rows {
		if row[3] != "1.000" {
			t.Errorf("E4 not optimal: %v", row)
		}
	}
}

func TestE5PredictionsHold(t *testing.T) {
	// E5 panics internally if the simulated FirstFit cost deviates from
	// the Lemma 3.5 prediction.
	r := E5()
	if len(r.Table.Rows) != 12 {
		t.Fatalf("E5 rows = %d", len(r.Table.Rows))
	}
	for _, row := range r.Table.Rows {
		if row[4] != row[5] {
			t.Errorf("E5 measured ratio %s != closed form %s", row[4], row[5])
		}
	}
}

func TestE6Runs(t *testing.T) {
	r := E6(3)
	if len(r.Table.Rows) == 0 {
		t.Fatal("E6 produced no rows")
	}
}

func TestE7Bound(t *testing.T) {
	r := E7(5)
	for _, row := range r.Table.Rows {
		if row[3] < "0.250" {
			t.Errorf("E7 min ratio below 1/4: %v", row)
		}
	}
}

func TestE8Optimal(t *testing.T) {
	r := E8(5)
	for _, row := range r.Table.Rows {
		if row[2] != "1.000" {
			t.Errorf("E8 DP not optimal: %v", row)
		}
	}
}

func TestE9GApprox(t *testing.T) {
	r := E9(5)
	for _, row := range r.Table.Rows {
		if row[2] > "1.000" {
			t.Errorf("E9 exceeded g·OPT: %v", row)
		}
	}
}

func TestE10ExactMatches(t *testing.T) {
	r := E10(5)
	for _, row := range r.Table.Rows {
		if !strings.HasPrefix(row[1], "5/5") {
			t.Errorf("E10 reduction missed OPT: %v", row)
		}
	}
}

func TestE11Optimal(t *testing.T) {
	r := E11(5)
	for _, row := range r.Table.Rows {
		if row[2] != "1.000" {
			t.Errorf("E11 not optimal: %v", row)
		}
	}
}

func TestE13Extensions(t *testing.T) {
	r := E13(5)
	if len(r.Table.Rows) != 4 {
		t.Fatalf("E13 rows = %d", len(r.Table.Rows))
	}
	if r.Table.Rows[0][2] != "true" {
		t.Errorf("tree greedy not optimal on laminar: %v", r.Table.Rows[0])
	}
}

func TestE14AblationsCombinedDominates(t *testing.T) {
	r := E14(5)
	if len(r.Table.Rows) != 8 {
		t.Fatalf("E14 rows = %d", len(r.Table.Rows))
	}
	// BestCut (row 0) must dominate the single cut (row 1) on mean ratio.
	if r.Table.Rows[0][2] > r.Table.Rows[1][2] {
		t.Errorf("best-of-offsets %s worse than single cut %s", r.Table.Rows[0][2], r.Table.Rows[1][2])
	}
	// Combined set cover (row 2) must dominate both variants (rows 3, 4).
	if r.Table.Rows[2][2] > r.Table.Rows[3][2] || r.Table.Rows[2][2] > r.Table.Rows[4][2] {
		t.Errorf("combined set cover not dominant: %v", r.Table.Rows[2:5])
	}
	// Combined throughput (row 7, mean column) must dominate Alg1 and Alg2.
	if r.Table.Rows[7][2] < r.Table.Rows[5][2] || r.Table.Rows[7][2] < r.Table.Rows[6][2] {
		t.Errorf("combined throughput not dominant: %v", r.Table.Rows[5:8])
	}
}

func TestE15LocalSearchNeverWorsens(t *testing.T) {
	r := E15(5)
	if len(r.Table.Rows) != 3 {
		t.Fatalf("E15 rows = %d", len(r.Table.Rows))
	}
	for _, row := range r.Table.Rows {
		if row[2] > row[1] {
			t.Errorf("local search worsened mean ratio: %v", row)
		}
	}
}

func TestE16ConformanceClean(t *testing.T) {
	// E16 panics when the conformance harness reports a violation, so a
	// successful run with one row per registered algorithm and an all-zero
	// violations column is the assertion.
	r := E16(2)
	if len(r.Table.Rows) == 0 {
		t.Fatal("E16 produced no rows")
	}
	for _, row := range r.Table.Rows {
		if row[4] != "0" {
			t.Errorf("E16 reports violations: %v", row)
		}
	}
}

func TestBoundTableClaims(t *testing.T) {
	// BoundTable panics internally when the paper's claims about the
	// bound landscape fail; g up to 20 exercises both sides of the g=6
	// threshold.
	r := BoundTable(20)
	if len(r.Table.Rows) != 20 {
		t.Fatalf("rows = %d", len(r.Table.Rows))
	}
	// Spot values: g=2 -> 1.2, g=6 -> just under 2, g=7 -> over 2.
	if r.Table.Rows[1][1] != "1.200" {
		t.Errorf("g=2 bound = %s", r.Table.Rows[1][1])
	}
	if SetCoverBound(6) >= 2 || SetCoverBound(7) < 2 {
		t.Error("g=6/7 threshold wrong")
	}
}

// TestAllRuns runs the published suite and pins its tables: the String()
// of every result except E18, whose speedup column is a wall-clock
// measurement, must equal testdata/all.golden.
func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in short mode")
	}
	rs := All()
	if len(rs) != 17 {
		t.Fatalf("All produced %d results", len(rs))
	}
	ids := map[string]bool{}
	var got strings.Builder
	for _, r := range rs {
		if ids[r.ID] {
			t.Errorf("duplicate experiment ID %s", r.ID)
		}
		ids[r.ID] = true
		if r.Table == nil || len(r.Table.Rows) == 0 {
			t.Errorf("%s: empty table", r.ID)
		}
		if r.ID != "E18" {
			got.WriteString(r.String())
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	diffs := 0
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\ngot:  %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			if diffs++; diffs == 5 {
				t.Fatal("stopping after 5 differing lines")
			}
		}
	}
}
