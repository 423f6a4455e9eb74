// Package spanbad collects every span-lifetime shape the analyzer must
// flag: discarded spans, blank bindings, spans never ended, and spans
// ended on some paths out of the function but not on others.
package spanbad

import (
	"context"
	"errors"

	"trace"
)

// Discarded starts a span nobody can ever end.
func Discarded(ctx context.Context) {
	trace.Start(ctx, "phase") // want `the span returned by trace.Start is discarded`
}

// Blank binds the span to the blank identifier.
func Blank(ctx context.Context) {
	_, _ = trace.Start(ctx, "phase") // want `assigned to the blank identifier`
}

// NeverEnded keeps the span but forgets End entirely.
func NeverEnded(ctx context.Context) {
	_, sp := trace.Start(ctx, "phase") // want `span sp may still be running on some path out of the function`
	sp.SetAttr("k", "v")
}

// EarlyReturn ends the span on the happy path only: the error return
// leaves it running.
func EarlyReturn(ctx context.Context, fail bool) error {
	_, sp := trace.Start(ctx, "phase") // want `span sp may still be running`
	if fail {
		return errors.New("boom")
	}
	sp.End()
	return nil
}

// ClosureSpan starts a span inside a function literal and loses it
// there: closures are checked as functions of their own.
func ClosureSpan(ctx context.Context) func() {
	return func() {
		_, sp := trace.Start(ctx, "phase") // want `span sp may still be running`
		sp.SetAttr("k", "v")
	}
}

// OneBranch ends the span only when ok holds; falling off the end of
// the function on the other branch leaves it running.
func OneBranch(ctx context.Context, ok bool) {
	_, sp := trace.Start(ctx, "phase") // want `span sp may still be running`
	if ok {
		sp.End()
	}
}

// LateReturn has its only End before every return in source order, but
// the failing path never reaches that End.
func LateReturn(ctx context.Context, ok bool) error {
	_, sp := trace.Start(ctx, "phase") // want `span sp may still be running`
	if ok {
		sp.End()
		return nil
	}
	return errors.New("boom")
}

// ShadowLeak ends only the inner span: the shadowing sp is a span of
// its own, so its End does not end the outer one.
func ShadowLeak(ctx context.Context) {
	_, sp := trace.Start(ctx, "outer") // want `span sp may still be running`
	sp.SetAttr("k", "v")
	{
		_, sp := trace.Start(ctx, "inner")
		sp.End()
	}
}

// DiscardedInLoop discards a span inside a loop whose held set changes
// between iterations (step is held from the second pass on): the
// finding is reported once, however often the loop body is analyzed.
func DiscardedInLoop(ctx context.Context, n int) {
	var step *trace.Span
	for i := 0; i < n; i++ {
		trace.Start(ctx, "phase") // want `the span returned by trace.Start is discarded`
		if step != nil {
			step.End()
		}
		_, step = trace.Start(ctx, "step")
	}
	step.End()
}
