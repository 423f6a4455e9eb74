// Package trace is the repo's zero-dependency hierarchical span
// subsystem: a solve request opens a root span, each phase (registry
// dispatch, lower bound, placement, local search, reopt repair,
// certification) opens a child, and the finished tree is snapshotted
// into a plain-data Node that travels on Result.Trace, the wire, the
// /debug/traces ring and the per-phase histograms.
//
// Tracing is sampling-aware and nil-safe by construction: Start
// returns a nil *Span unless the context was explicitly enabled (the
// server enables every request; library callers opt in with Enable),
// and every Span method is a no-op on nil. The disabled path costs two
// context lookups per Start — pinned, with the enabled path's cost, by
// BenchmarkTraceOverhead in CI.
package trace

import (
	"context"
	"sync"
	"time"
)

type ctxKey int

const (
	spanCtxKey ctxKey = iota
	enabledCtxKey
)

// enabledInfo marks a context as traced before any span exists: the
// trace id to use (remote, from a traceparent header, or freshly
// generated) and the remote parent span id, if any.
type enabledInfo struct {
	traceID string
	parent  string
}

// Enable marks ctx as traced: the next Start on it opens a root span
// under a fresh trace id. Contexts not marked (and not already inside
// a span) trace nothing — Start returns nil and every span operation
// no-ops.
func Enable(ctx context.Context) context.Context {
	return context.WithValue(ctx, enabledCtxKey, &enabledInfo{traceID: NewTraceID()})
}

// EnableRemote marks ctx as traced under a caller-supplied trace id
// and remote parent span id — the ids carried by an incoming W3C
// traceparent header. The next Start opens a root span that joins the
// remote trace.
func EnableRemote(ctx context.Context, traceID, parentSpanID string) context.Context {
	return context.WithValue(ctx, enabledCtxKey, &enabledInfo{traceID: traceID, parent: parentSpanID})
}

// Enabled reports whether Start on ctx would record a span.
func Enabled(ctx context.Context) bool {
	if sp, _ := ctx.Value(spanCtxKey).(*Span); sp != nil {
		return true
	}
	info, _ := ctx.Value(enabledCtxKey).(*enabledInfo)
	return info != nil
}

// Start opens a span named name: a child of the span active on ctx, or
// a new root if ctx was Enabled but holds no span yet. On untraced
// contexts it returns (ctx, nil) without allocating; the nil span
// no-ops every method. The returned context carries the new span, so
// deeper calls nest under it. Callers must End the span on every path
// (enforced by the busylint spanend analyzer).
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if parent, _ := ctx.Value(spanCtxKey).(*Span); parent != nil {
		sp := &Span{
			name:    name,
			traceID: parent.traceID,
			spanID:  NewSpanID(),
			start:   time.Now(),
		}
		parent.mu.Lock()
		parent.children = append(parent.children, sp)
		parent.mu.Unlock()
		return context.WithValue(ctx, spanCtxKey, sp), sp
	}
	info, _ := ctx.Value(enabledCtxKey).(*enabledInfo)
	if info == nil {
		return ctx, nil
	}
	sp := &Span{
		name:         name,
		traceID:      info.traceID,
		spanID:       NewSpanID(),
		remoteParent: info.parent,
		start:        time.Now(),
	}
	return context.WithValue(ctx, spanCtxKey, sp), sp
}

// Span is one recorded operation: a name, a wall-clock interval, string
// attributes and child spans. Spans are safe for concurrent use — batch
// workers append children to the shared batch span concurrently.
type Span struct {
	name         string
	traceID      string
	spanID       string
	remoteParent string
	start        time.Time

	mu       sync.Mutex
	ended    bool
	dur      time.Duration
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// End freezes the span's duration. It is nil-safe and idempotent: the
// first call wins, so a defensive deferred End after an explicit one
// does not stretch the recorded time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// SetAttr records a string attribute. Nil-safe; later values for the
// same key append rather than overwrite (snapshots keep the last).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// TraceID returns the span's 32-hex trace id ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SpanID returns the span's 16-hex span id ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// Snapshot converts the span subtree into plain-data Nodes. Nil-safe
// (returns nil). Snapshotting an unended span reports its duration so
// far; children are snapshotted recursively under their own locks.
func (s *Span) Snapshot() *Node {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	attrs := make([]Attr, len(s.attrs))
	copy(attrs, s.attrs)
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()

	n := &Node{
		Name:         s.name,
		TraceID:      s.traceID,
		SpanID:       s.spanID,
		ParentSpanID: s.remoteParent,
		StartUnixNS:  s.start.UnixNano(),
		DurationNS:   int64(dur),
	}
	if len(attrs) > 0 {
		n.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			n.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range children {
		cn := c.Snapshot()
		cn.TraceID = "" // the root carries the shared trace id once
		n.Children = append(n.Children, cn)
	}
	return n
}

// Node is the immutable snapshot of one span: what Result.Trace, the
// wire and /debug/traces carry.
type Node struct {
	Name string `json:"name"`
	// TraceID is set on the snapshot root only; ParentSpanID is the
	// remote parent from an incoming traceparent header, roots only.
	TraceID      string            `json:"trace_id,omitempty"`
	SpanID       string            `json:"span_id,omitempty"`
	ParentSpanID string            `json:"parent_span_id,omitempty"`
	StartUnixNS  int64             `json:"start_unix_ns,omitempty"`
	DurationNS   int64             `json:"duration_ns"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	Children     []*Node           `json:"children,omitempty"`
}

// Duration returns the node's recorded duration.
func (n *Node) Duration() time.Duration { return time.Duration(n.DurationNS) }

// Attr returns the value of an attribute key ("" when absent or nil).
func (n *Node) Attr(key string) string {
	if n == nil {
		return ""
	}
	return n.Attrs[key]
}

// Find returns the first node named name in a pre-order walk of the
// subtree rooted at n, or nil.
func (n *Node) Find(name string) *Node {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// Walk visits every node of the subtree pre-order.
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}
