// Package spanend keeps the tracing subsystem honest about span
// lifetimes: a *trace.Span that is started but never ended reports a
// still-running duration forever, skews the phase histograms and leaks
// an open child into every snapshot of its trace. The bug is easy to
// write — an early error return between trace.Start and End — and
// invisible at runtime, because an unended span still renders.
//
// Every span bound by trace.Start must be ended on every path out of
// the function. This is the acquire/release pair analysis locksafe
// runs for mutexes (internal/analysis/pairs): `_, sp := trace.Start(…)`
// acquires the span, keyed by the variable's object (a shadowing
// variable is a different span), and sp.End() releases it. Accepted
// shapes:
//
//	_, sp := trace.Start(ctx, "phase")
//	defer sp.End()                      // covers every later exit
//
// or an explicit sp.End() on every path to every exit — the shape the
// solver's hot path uses to snapshot the span before the function
// returns. A span that may still be running on some path out of the
// function is reported once, at its Start. Also flagged, syntactically:
// discarding the span (a bare call statement) or binding it to the
// blank identifier. A site that hands span ownership elsewhere may
// carry a //lint:ignore busylint/spanend suppression explaining who
// ends it.
package spanend

import (
	"go/ast"
	"go/types"
	"path"

	"repro/internal/analysis"
	"repro/internal/analysis/pairs"
)

// ScopePrefixes lists the packages whose trace.Start calls are policed:
// the solver (the repo root) and everything under internal — the serving
// layer and the reoptimization cache both open spans.
var ScopePrefixes = []string{"repro"}

// Analyzer is the busylint/spanend analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc: "requires every span returned by trace.Start to be ended on every CFG path out of the function " +
		"(defer sp.End() covers every later exit); unended spans corrupt durations and snapshots",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.Pkg.Path(), ScopePrefixes) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok && isTraceStart(pass, call) {
					pass.Reportf(call.Pos(), "the span returned by trace.Start is discarded and can never be ended")
				}
			case *ast.AssignStmt:
				if call, span := startAssign(pass, n); call != nil && span == nil {
					pass.Reportf(call.Pos(), "the span returned by trace.Start is assigned to the blank identifier and can never be ended")
				}
			}
			return true
		})
	}
	a := pairs.Analysis[types.Object]{
		Classify: func(n ast.Node) (types.Object, pairs.Op) { return classify(pass, n) },
	}
	pairs.Funcs(pass.Files, func(body *ast.BlockStmt) {
		for _, leak := range pairs.Check(body, a) {
			name := leak.Key.Name()
			pass.Reportf(leak.Pos, "span %s may still be running on some path out of the function; add defer %s.End() or end it before every return", name, name)
		}
	})
	return nil
}

// classify makes `x, sp := trace.Start(…)` (or `=`) the acquisition of
// sp's span and sp.End() its release, both keyed by sp's object.
func classify(pass *analysis.Pass, n ast.Node) (types.Object, pairs.Op) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if _, span := startAssign(pass, n); span != nil {
			if obj := pass.TypesInfo.ObjectOf(span); obj != nil {
				return obj, pairs.Acquire
			}
		}
	case *ast.CallExpr:
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
			if id, ok := sel.X.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					return obj, pairs.Release
				}
			}
		}
	}
	return nil, pairs.None
}

// startAssign returns the trace.Start call an assignment takes its
// values from, if any, and the identifier binding the span (the second
// result) — nil when that is blank or not a plain identifier.
func startAssign(pass *analysis.Pass, stmt *ast.AssignStmt) (*ast.CallExpr, *ast.Ident) {
	if len(stmt.Rhs) != 1 {
		return nil, nil
	}
	call, ok := stmt.Rhs[0].(*ast.CallExpr)
	if !ok || !isTraceStart(pass, call) {
		return nil, nil
	}
	if len(stmt.Lhs) != 2 {
		return call, nil
	}
	if id, ok := stmt.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
		return call, id
	}
	return call, nil
}

// isTraceStart reports whether call resolves to the Start function of a
// package named trace (the fixture stub or repro/internal/trace).
func isTraceStart(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Start" || fn.Pkg() == nil {
		return false
	}
	return path.Base(fn.Pkg().Path()) == "trace" && fn.Type().(*types.Signature).Recv() == nil
}
