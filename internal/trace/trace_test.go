package trace

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestDisabledContextIsNoOp(t *testing.T) {
	ctx := context.Background()
	if Enabled(ctx) {
		t.Fatal("background context reports Enabled")
	}
	ctx2, sp := Start(ctx, "solve")
	if sp != nil {
		t.Fatalf("Start on untraced context returned span %v", sp)
	}
	if ctx2 != ctx {
		t.Fatal("Start on untraced context allocated a new context")
	}
	// Every method must be nil-safe.
	sp.End()
	sp.SetAttr("k", "v")
	if sp.Snapshot() != nil {
		t.Fatal("nil span snapshot not nil")
	}
	if sp.TraceID() != "" || sp.SpanID() != "" {
		t.Fatal("nil span has ids")
	}
}

func TestEnabledSpanTree(t *testing.T) {
	ctx := Enable(context.Background())
	if !Enabled(ctx) {
		t.Fatal("Enable did not mark the context")
	}
	ctx, root := Start(ctx, "solve")
	if root == nil {
		t.Fatal("Start on enabled context returned nil span")
	}
	_, a := Start(ctx, "classify")
	a.End()
	cctx, b := Start(ctx, "placement")
	_, b2 := Start(cctx, "matching")
	b2.End()
	b.End()
	root.SetAttr("algorithm", "first-fit")
	root.End()

	n := root.Snapshot()
	if n.Name != "solve" || len(n.Children) != 2 {
		t.Fatalf("root = %q with %d children, want solve with 2", n.Name, len(n.Children))
	}
	if n.TraceID == "" || len(n.TraceID) != 32 {
		t.Fatalf("root trace id %q", n.TraceID)
	}
	if n.Attr("algorithm") != "first-fit" {
		t.Fatalf("algorithm attr = %q", n.Attr("algorithm"))
	}
	if n.Find("matching") == nil {
		t.Fatal("nested child missing from snapshot")
	}
	if got := n.Children[0].Name; got != "classify" {
		t.Fatalf("first child = %q, want classify (insertion order)", got)
	}
	// Sequential nested children: durations must sum to at most the root.
	var sum int64
	for _, c := range n.Children {
		sum += c.DurationNS
	}
	if sum > n.DurationNS {
		t.Fatalf("children sum %dns exceeds root %dns", sum, n.DurationNS)
	}
	count := 0
	n.Walk(func(*Node) { count++ })
	if count != 4 {
		t.Fatalf("Walk visited %d nodes, want 4", count)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	_, sp := Start(Enable(context.Background()), "solve")
	sp.End()
	first := sp.Snapshot().DurationNS
	sp.End() // a defensive deferred End after the explicit one
	if got := sp.Snapshot().DurationNS; got != first {
		t.Fatalf("second End changed duration: %d -> %d", first, got)
	}
}

func TestRemoteParentPropagates(t *testing.T) {
	tid, pid := NewTraceID(), NewSpanID()
	ctx := EnableRemote(context.Background(), tid, pid)
	_, sp := Start(ctx, "request")
	sp.End()
	n := sp.Snapshot()
	if n.TraceID != tid {
		t.Fatalf("trace id %q, want remote %q", n.TraceID, tid)
	}
	if n.ParentSpanID != pid {
		t.Fatalf("parent span id %q, want remote %q", n.ParentSpanID, pid)
	}
	if sp.TraceID() != tid {
		t.Fatalf("TraceID() = %q", sp.TraceID())
	}
}

func TestConcurrentChildren(t *testing.T) {
	ctx, root := Start(Enable(context.Background()), "batch")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := Start(ctx, "solve")
			sp.SetAttr("k", "v")
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Snapshot().Children); got != 32 {
		t.Fatalf("%d children, want 32", got)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	ctx, root := Start(Enable(context.Background()), "request")
	_, sp := Start(ctx, "solve")
	sp.End()
	root.End()
	b, err := json.Marshal(root.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"name":"request"`, `"trace_id"`, `"duration_ns"`, `"name":"solve"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("snapshot JSON %s missing %s", s, want)
		}
	}
	// Children must not repeat the trace id.
	if strings.Count(s, `"trace_id"`) != 1 {
		t.Fatalf("trace id repeated in children: %s", s)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	header := Traceparent(tid, sid)
	gotTid, gotSid, err := ParseTraceparent(header)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", header, err)
	}
	if gotTid != tid || gotSid != sid {
		t.Fatalf("round trip (%q, %q), want (%q, %q)", gotTid, gotSid, tid, sid)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", // missing flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // upper-case hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
	}
	for _, h := range bad {
		if _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
	// A future version may carry extra fields; the ids must still parse.
	if _, _, err := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); err != nil {
		t.Errorf("future-version traceparent rejected: %v", err)
	}
}

func TestIDShapes(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		tid, sid := NewTraceID(), NewSpanID()
		if !isHex(tid, 32) || allZero(tid) {
			t.Fatalf("trace id %q", tid)
		}
		if !isHex(sid, 16) || allZero(sid) {
			t.Fatalf("span id %q", sid)
		}
		if seen[tid] {
			t.Fatalf("duplicate trace id %q", tid)
		}
		seen[tid] = true
	}
}
