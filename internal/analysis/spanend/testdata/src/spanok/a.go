// Package spanok collects the sanctioned span-lifetime shapes: the
// analyzer must stay silent on every function here.
package spanok

import (
	"context"
	"errors"

	"trace"
)

// Deferred is the canonical form.
func Deferred(ctx context.Context) {
	_, sp := trace.Start(ctx, "phase")
	defer sp.End()
	sp.SetAttr("k", "v")
}

// DeferredWithReturns may return from anywhere: the defer covers it.
func DeferredWithReturns(ctx context.Context, fail bool) error {
	_, sp := trace.Start(ctx, "phase")
	defer sp.End()
	if fail {
		return errors.New("boom")
	}
	return nil
}

// StraightLine ends the span explicitly on the one path out — the
// solver's hot-path shape, which snapshots after End.
func StraightLine(ctx context.Context) {
	_, sp := trace.Start(ctx, "phase")
	sp.SetAttr("k", "v")
	sp.End()
}

// BranchEnd ends the span on the early-exit branch before returning,
// and again on the fall-through: every path out ends it.
func BranchEnd(ctx context.Context, fail bool) error {
	_, sp := trace.Start(ctx, "phase")
	if fail {
		sp.End()
		return errors.New("boom")
	}
	sp.End()
	return nil
}

// ClosureReturn returns from a nested function literal between Start
// and End; that return exits the closure, not this function.
func ClosureReturn(ctx context.Context) {
	_, sp := trace.Start(ctx, "phase")
	f := func(n int) int {
		if n < 0 {
			return 0
		}
		return n
	}
	_ = f(1)
	sp.End()
}

// Shadowed ends both spans: the inner sp shadows the outer one and is
// ended on its own.
func Shadowed(ctx context.Context, nested bool) {
	_, sp := trace.Start(ctx, "outer")
	if nested {
		_, sp := trace.Start(ctx, "inner")
		sp.End()
	}
	sp.End()
}

// Suppressed hands span ownership to its caller — the documented
// escape hatch for helpers like the server's startTrace.
func Suppressed(ctx context.Context) (context.Context, *trace.Span) {
	//lint:ignore busylint/spanend ownership transfers to the caller, which defers End
	ctx, sp := trace.Start(ctx, "request")
	return ctx, sp
}
