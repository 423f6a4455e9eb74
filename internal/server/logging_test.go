package server

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/wirejson"
)

// FuzzRequestLog pins the request log's appender to encoding/json: an
// entry built from the fuzzed fields and stamped with the fuzzed time
// must be written as an Encoder with SetEscapeHTML(false) writes it, or
// declined, with the buffer as it was, exactly when it has phases or a
// string that is not plain.
//
//	go test -fuzz FuzzRequestLog -fuzztime 30s -run '^$' ./internal/server
func FuzzRequestLog(f *testing.F) {
	for _, e := range []struct {
		kind, session, outcome, alg, err string
		seq, dur, size                   int64
	}{
		{"stream_event", "sess-1", "assign", "", "", 17, 81234, 32},
		{"stream_open", "sess-1", "resumed", "", "", 200, 0, 0},
		{"solve", "", "ok", "best-cut", "", 0, 1500000, 0},
		{"batch", "", "error", "auto", "server: batch of 0 requests", 0, 99, 0},
		{"stream_error", "s", "error", "", `journal: invalid session id "a b"`, 3, 0, 0},
		{"solve", "", "error", "error", "want <g> & more", 0, -1, -2},
		{"stream_close", "café", "ok", "", "ratio ≥ 1", 1 << 40, 1 << 62, 7},
		{"stream_error", "x", "error", "", "bad \xff byte\n", -9, 0, 0},
	} {
		f.Add(int64(1760000000123456789), e.kind, e.session, e.outcome, e.alg, e.err, e.seq, e.dur, e.size, false)
	}
	f.Add(int64(0), "slow_solve", "", "solve", "first-fit", "", int64(0), int64(5), int64(0), true)
	f.Add(int64(-1), "solve", "", "ok", "auto", "", int64(1), int64(1), int64(1), false)

	f.Fuzz(func(t *testing.T, unixNS int64, kind, session, outcome, alg, errText string, seq, dur, size int64, phases bool) {
		ts := time.Unix(0, unixNS)
		e := logEntry{Kind: kind, Session: session, Seq: int(seq), Outcome: outcome, DurationNS: dur,
			Size: int(size), Algorithm: alg, Error: errText}
		if phases {
			e.PhaseNS = map[string]int64{"solve": dur, "certify": seq}
		}
		got, ok := appendEntry([]byte("prefix"), ts, &e)
		plain := wirejson.Plain(kind) && wirejson.Plain(session) && wirejson.Plain(outcome) &&
			wirejson.Plain(alg) && wirejson.Plain(errText)
		if ok != (plain && !phases) {
			t.Fatalf("appendEntry reported %v for an entry with plain strings %v and phases %v", ok, plain, phases)
		}
		if !ok {
			if string(got) != "prefix" {
				t.Fatalf("appendEntry declined but wrote %q", got)
			}
			return
		}
		e.TS = ts.UTC().Format(time.RFC3339Nano)
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[len("prefix"):], want.Bytes()) {
			t.Fatalf("appendEntry wrote %q, the Encoder %q", got[len("prefix"):], want.Bytes())
		}
	})
}

// TestRequestLogLines logs entries the appender writes and entries it
// leaves to the Encoder: each comes out as one line, the Encoder's
// encoding of the entry with the timestamp the line carries.
func TestRequestLogLines(t *testing.T) {
	entries := []logEntry{
		{Kind: "stream_event", Session: "s-1", Seq: 4, Outcome: "assign", DurationNS: 812},
		{Kind: "stream_error", Session: "s-1", Outcome: "error", Error: `bad "quote" <here>`},
		{Kind: "slow_solve", Outcome: "solve", Algorithm: "first-fit", PhaseNS: map[string]int64{"place": 9}},
	}
	var buf bytes.Buffer
	l := newRequestLog(&buf)
	for _, e := range entries {
		l.log(e)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	if len(lines) != len(entries)+1 || lines[len(entries)] != "" {
		t.Fatalf("logged %q, want %d lines", buf.String(), len(entries))
	}
	for i, e := range entries {
		var got logEntry
		if err := json.Unmarshal([]byte(lines[i]), &got); err != nil {
			t.Fatalf("line %d %q: %v", i, lines[i], err)
		}
		if _, err := time.Parse(time.RFC3339Nano, got.TS); err != nil {
			t.Fatalf("line %d timestamp: %v", i, err)
		}
		e.TS = got.TS
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
		if lines[i] != want.String() {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want.String())
		}
	}
}

// BenchmarkRequestLog times the line busyd logs for every acknowledged
// arrival, a stream_event entry, written to io.Discard.
func BenchmarkRequestLog(b *testing.B) {
	l := newRequestLog(io.Discard)
	e := logEntry{Kind: "stream_event", Session: "bench-session-1", Seq: 1234, Outcome: "assign", DurationNS: 81234}
	b.ReportAllocs()
	for b.Loop() {
		l.log(e)
	}
}
