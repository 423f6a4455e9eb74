package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// solvedDoc runs the default mode with -json and decodes the document.
func solvedDoc(t *testing.T, args string) map[string]any {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(strings.Fields(args), "-json"), &out); err != nil {
		t.Fatalf("busysim %s -json: %v", args, err)
	}
	var doc map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// verifyDoc writes doc to a file and runs `busysim verify -in` on it.
func verifyDoc(t *testing.T, doc map[string]any) (string, error) {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"verify", "-in", path}, &out)
	return out.String(), err
}

// TestVerifyRoundTrip feeds busysim -json documents, a MinBusy and a
// partial MaxThroughput schedule, back into busysim verify.
func TestVerifyRoundTrip(t *testing.T) {
	for _, c := range []struct {
		args string
		want []string
	}{
		{"-workload clique -n 12 -g 2 -alg auto", []string{"valid: yes", "scheduled=12/12", "exact optimum="}},
		{"-workload proper-clique -n 30 -g 3 -alg throughput -budget 500", []string{"valid: yes", "/30\n"}},
	} {
		report, err := verifyDoc(t, solvedDoc(t, c.args))
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.args, err, report)
		}
		for _, want := range c.want {
			if !strings.Contains(report, want) {
				t.Errorf("%s: report missing %q:\n%s", c.args, want, report)
			}
		}
	}
}

// TestVerifyRejects checks that verify refuses a schedule that breaks
// capacity or does not cover the instance, and a document whose
// statistics disagree with its schedule.
func TestVerifyRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(doc map[string]any)
		want   string
	}{
		{"truncated machine array", func(doc map[string]any) {
			m := doc["machine"].([]any)
			doc["machine"] = m[:len(m)-1]
		}, "covers 11 jobs"},
		{"overloaded machine", func(doc map[string]any) {
			m := doc["machine"].([]any)
			for i := range m {
				m[i] = 0
			}
		}, "machine 0 carries load"},
		{"misreported cost", func(doc map[string]any) { doc["cost"] = 1 }, "reported cost 1"},
		{"misreported scheduled", func(doc map[string]any) { doc["scheduled"] = 3 }, "reported 3 scheduled"},
		{"misreported machines", func(doc map[string]any) { doc["machines"] = 99 }, "reported 99 machines"},
		{"misreported statistics", func(doc map[string]any) {
			doc["cost"], doc["scheduled"], doc["machines"] = 1, 3, 99
		}, "INVALID schedule"},
	}
	for _, c := range cases {
		doc := solvedDoc(t, "-workload clique -n 12 -g 2 -alg auto")
		c.mutate(doc)
		report, err := verifyDoc(t, doc)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
		if !strings.Contains(report, "valid: NO") {
			t.Errorf("%s: report does not say invalid:\n%s", c.name, report)
		}
	}
}
