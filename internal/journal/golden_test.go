package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/workload"
)

// certPrefix starts the line that follows each session's records in
// testdata/certify.golden: the session's Certificate, printed with %+v.
const certPrefix = "certificate "

// renderCertify certifies workload.WeightedArrivals seeds 1–4 (n = 60,
// g = 3, fed in start order) under every registered online strategy; a
// strategy that takes a budget runs at 1.5 × the Observation 2.1 bound,
// which makes it reject. Each session contributes its EncodeRecords
// bytes followed by one certificate line.
func renderCertify(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, name := range registry.Names(registry.Online) {
		alg, err := registry.LookupKind(registry.Online, name)
		if err != nil {
			t.Fatal(err)
		}
		_, budgeted := alg.NewStrategy().(online.BudgetSetter)
		for seed := int64(1); seed <= 4; seed++ {
			in := workload.WeightedArrivals(seed, workload.Config{N: 60, G: 3, MaxTime: 300, MaxLen: 60})
			p := OpenParams{G: in.G, Strategy: name}
			if budgeted {
				p.Budget = in.LowerBound() * 3 / 2
			}
			var arrs []Arrival
			for _, j := range in.SortedByStart().Jobs {
				arrs = append(arrs, ArrivalOf(j))
			}
			recs, cert, err := Certify(fmt.Sprintf("%s-%d", name, seed), p, arrs)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if budgeted && cert.Summary.Rejected == 0 {
				t.Fatalf("%s seed %d rejected nothing; the golden must journal rejections", name, seed)
			}
			if err := EncodeRecords(&b, recs); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s%+v\n", certPrefix, cert)
		}
	}
	return b.Bytes()
}

// TestCertifyGolden pins the journal's bytes: every record's encoding and
// hash, and every certificate, of the sessions renderCertify runs. A
// change to a JSON tag, a field or an omitempty of a journaled payload
// shows here as a line diff against testdata/certify.golden. The
// committed bytes must also decode and verify to the certificates they
// carry.
func TestCertifyGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "certify.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(string(renderCertify(t)), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Errorf("%d lines, golden has %d", len(got), len(wantLines))
	}
	diffs := 0
	for i := range min(len(got), len(wantLines)) {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\ngot:  %s\nwant: %s", i+1, got[i], wantLines[i])
			if diffs++; diffs == 5 {
				t.Fatal("stopping after 5 differing lines")
			}
		}
	}

	sessions := 0
	var block bytes.Buffer
	for _, line := range wantLines[:len(wantLines)-1] {
		cert, ok := strings.CutPrefix(line, certPrefix)
		if !ok {
			block.WriteString(line + "\n")
			continue
		}
		recs, err := DecodeRecords(&block)
		if err != nil {
			t.Fatalf("session %d: %v", sessions, err)
		}
		c, err := Verify(recs)
		if err != nil {
			t.Fatalf("session %d: %v", sessions, err)
		}
		if s := fmt.Sprintf("%+v", c); s != cert {
			t.Errorf("session %d verifies to\n%s\nbut the golden carries\n%s", sessions, s, cert)
		}
		block.Reset()
		sessions++
	}
	if block.Len() > 0 || sessions != 4*len(registry.Names(registry.Online)) {
		t.Errorf("golden holds %d certified sessions and %d trailing bytes", sessions, block.Len())
	}
}

// TestReplayComparesPayloads forges a recorded value and re-seals the
// chain behind it, so only Replay's comparison with the replayed session
// can catch the forgery: an event's cost, and the close record's ratio.
func TestReplayComparesPayloads(t *testing.T) {
	forge := func(edit func(recs []Record) int) []Record {
		recs, _, err := Certify("forged", budgetParams(), testArrivals(9))
		if err != nil {
			t.Fatalf("Certify: %v", err)
		}
		from := edit(recs)
		var buf []byte
		for i := from; i < len(recs); i++ {
			if recs[i], err = seal(recs[i], recs[i-1].Hash, &buf); err != nil {
				t.Fatal(err)
			}
		}
		return recs
	}
	event := forge(func(recs []Record) int {
		ev := *recs[3].Event
		ev.Cost++
		recs[3].Event = &ev
		return 3
	})
	if _, err := Replay(event); err == nil || !strings.Contains(err.Error(), "does not match the replayed placement") {
		t.Errorf("Replay of a journal with a forged event cost: %v", err)
	}
	closing := forge(func(recs []Record) int {
		last := len(recs) - 1
		sum := *recs[last].Close
		sum.Ratio *= 2
		recs[last].Close = &sum
		return last
	})
	if _, err := Replay(closing); err == nil || !strings.Contains(err.Error(), "does not match the replayed summary") {
		t.Errorf("Replay of a journal with a forged close ratio: %v", err)
	}
}
