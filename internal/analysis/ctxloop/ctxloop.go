// Package ctxloop enforces the cooperative-cancellation invariant the
// algorithm packages adopted in PR 3: a function that accepts a
// context.Context has promised its caller cancellation, so every loop
// nest in it that can iterate with the input size must observe the
// context — by calling ctx.Err()/ctx.Done() (possibly on a stride, as
// the exact DP does), or by passing ctx into a callee that does.
//
// Without this check the promise rots silently: a Solver deadline fires,
// the HTTP client goes away, and an Ω(3^n) subset enumeration keeps a
// core pinned until it finishes. The analyzer makes the invariant hold
// for every future algorithm (the planned exact-bb branch-and-bound
// included) instead of relying on reviewers remembering it.
package ctxloop

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// ScopePrefixes lists the packages whose ctx-taking functions are
// checked. Tests override this to point at fixtures.
var ScopePrefixes = []string{
	"repro/internal/core",
	"repro/internal/setcover",
	"repro/internal/matching",
	"repro/internal/localsearch",
	"repro/internal/exact",
	"repro/internal/online",
}

// Analyzer is the busylint/ctxloop analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxloop",
	Doc: "flags loops in context-accepting algorithm functions that never observe the context; " +
		"every outermost loop nest must call ctx.Err()/ctx.Done() or pass ctx to a callee",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.Pkg.Path(), ScopePrefixes) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ctxVars := contextParams(pass, fn)
			if len(ctxVars) == 0 {
				continue
			}
			checkBody(pass, fn, ctxVars)
		}
	}
	return nil
}

// contextParams returns the named context.Context parameters of fn.
func contextParams(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	vars := map[types.Object]bool{}
	if fn.Type.Params == nil {
		return vars
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				vars[obj] = true
			}
		}
	}
	return vars
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkBody reports every outermost loop in fn whose subtree never
// observes one of the ctx variables. Nested loops are covered by their
// outermost nest: the sanctioned pattern checks the context once per
// outer iteration (possibly on a stride), which is exactly how the
// existing DP and set-cover hot loops amortize the check.
func checkBody(pass *analysis.Pass, fn *ast.FuncDecl, ctxVars map[types.Object]bool) {
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			switch loop := m.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				if m == n {
					return true // the loop we were called on; descend
				}
				if inLoop {
					return true // inner loop of an already-accounted nest
				}
				if !constantBound(pass, loop) && !observesCtx(pass, loop, ctxVars) {
					pass.Reportf(loop.Pos(),
						"loop in %s does not observe its context; call ctx.Err()/ctx.Done() (a stride is fine) or pass ctx to a callee",
						fn.Name.Name)
				}
				walk(loopBody(loop), true)
				return false // handled the subtree ourselves
			}
			return true
		})
	}
	walk(fn.Body, false)
}

func loopBody(loop ast.Node) *ast.BlockStmt {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// constantBound reports whether the loop trivially runs a compile-time
// constant number of iterations (for i := 0; i < 8; i++, or ranging
// over an array or integer constant): such loops cannot scale with the
// input, so they need no cancellation point.
func constantBound(pass *analysis.Pass, loop ast.Node) bool {
	switch l := loop.(type) {
	case *ast.ForStmt:
		// Both the start and the limit must be constants: a constant
		// limit alone ("i > 0" counting down from n) still scales.
		init, ok := l.Init.(*ast.AssignStmt)
		if !ok || len(init.Rhs) != 1 || !isConstExpr(pass, init.Rhs[0]) {
			return false
		}
		cond, ok := l.Cond.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		return isConstExpr(pass, cond.X) || isConstExpr(pass, cond.Y)
	case *ast.RangeStmt:
		if isConstExpr(pass, l.X) {
			return true // range over an integer constant (go1.22)
		}
		t := pass.TypesInfo.TypeOf(l.X)
		if t == nil {
			return false
		}
		if _, ok := t.Underlying().(*types.Array); ok {
			return true
		}
		if p, ok := t.Underlying().(*types.Pointer); ok {
			_, ok = p.Elem().Underlying().(*types.Array)
			return ok
		}
	}
	return false
}

func isConstExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// observesCtx reports whether the loop's subtree (condition and body,
// nested loops and function literals included) references any ctx
// variable — an Err/Done call, a select on Done, or passing ctx onward.
func observesCtx(pass *analysis.Pass, loop ast.Node, ctxVars map[types.Object]bool) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && ctxVars[obj] {
			found = true
			return false
		}
		return true
	})
	return found
}
