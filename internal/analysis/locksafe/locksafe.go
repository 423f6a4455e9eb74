// Package locksafe proves the two lock invariants the serving path's
// mutexes rely on, using the CFG/dataflow engine rather than syntax:
//
//  1. Release on all paths: every sync.Mutex/RWMutex Lock or RLock must
//     be released on every control-flow path out of the function — early
//     returns and explicit panics included. This is the shared
//     acquire/release pair analysis (internal/analysis/pairs): a reached
//     `defer mu.Unlock()` satisfies every later exit (that is exactly
//     what defer guarantees, panic unwinding included); an Unlock on the
//     straight-line path satisfies only the exits it dominates. A lock
//     still held on ANY path into the exit block is a finding, reported
//     at its acquisition site.
//
//  2. Consistent acquisition order: within a package, if one function
//     acquires lock B while holding lock A and another acquires A while
//     holding B, the pair can deadlock when the functions race. Every
//     acquisition records "held → acquired" edges between locks with a
//     cross-function identity (a package-level variable, a struct field,
//     or a receiver embedding the mutex), and inversions are reported at
//     the later-seen acquisition.
//
// Also flagged: re-acquiring a write lock already held on every path to
// the call (`mu.Lock()` twice) — a guaranteed self-deadlock. TryLock is
// ignored (its acquisition is conditional; modeling it needs path
// sensitivity the suite does not buy). A function that intentionally
// returns holding a lock (a lock-helper split across functions) carries
// a //lint:ignore busylint/locksafe waiver naming who releases it.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/pairs"
)

// ScopePrefixes lists the packages checked: the whole tree — every
// package that holds a mutex must release it. Tests override this to
// point at fixtures.
var ScopePrefixes = []string{"repro"}

// Analyzer is the busylint/locksafe analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "requires every mutex Lock/RLock to be released on all CFG paths (early returns and " +
		"panics included) and lock acquisition order to be consistent across a package",
	Run: run,
}

// lock is one held lock within a function: the receiver expression as
// written ("s.mu"), the read or write half, and the lock's identity
// across the package's functions ("" when it has none).
type lock struct {
	expr string
	read bool
	id   string
}

// orderEdge records "to was acquired while from was held" for the
// package-wide ordering check.
type orderEdge struct{ from, to string }

func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.Pkg.Path(), ScopePrefixes) {
		return nil
	}
	order := map[orderEdge]token.Pos{} // earliest site per direction
	a := pairs.Analysis[lock]{
		Classify: func(n ast.Node) (lock, pairs.Op) { return classify(pass, n) },
		Acquired: func(l lock, pos token.Pos, held pairs.Held[lock]) {
			if _, dup := held[l]; dup && !l.read {
				pass.Reportf(pos, "%s.Lock() while %s may already be held: self-deadlock", l.expr, l.expr)
			}
			if l.id == "" {
				return
			}
			for h := range held {
				if h.id == "" || h.id == l.id {
					continue
				}
				e := orderEdge{h.id, l.id}
				if prev, ok := order[e]; !ok || pos < prev {
					order[e] = pos
				}
			}
		},
	}
	pairs.Funcs(pass.Files, func(body *ast.BlockStmt) {
		for _, leak := range pairs.Check(body, a) {
			l := leak.Key
			what, verb := "lock", "Unlock"
			if l.read {
				what, verb = "read lock", "RUnlock"
			}
			pass.Reportf(leak.Pos, "%s %s may still be held on some path out of the function; add defer %s.%s() or release it before every return", what, l.expr, l.expr, verb)
		}
	})
	reportInversions(pass, order)
	return nil
}

// classify resolves a call to a lock operation on a sync mutex: the
// method must be Lock/RLock/Unlock/RUnlock with a receiver of type
// sync.Mutex, sync.RWMutex or sync.Locker (embedded mutexes resolve
// through the method's declared receiver, so `s.Lock()` on a struct
// embedding sync.Mutex is recognized).
func classify(pass *analysis.Pass, n ast.Node) (lock, pairs.Op) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return lock{}, pairs.None
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lock{}, pairs.None
	}
	var op pairs.Op
	read := false
	switch sel.Sel.Name {
	case "Lock":
		op = pairs.Acquire
	case "RLock":
		op, read = pairs.Acquire, true
	case "Unlock":
		op = pairs.Release
	case "RUnlock":
		op, read = pairs.Release, true
	default:
		return lock{}, pairs.None
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return lock{}, pairs.None
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isSyncLockType(sig.Recv().Type()) {
		return lock{}, pairs.None
	}
	return lock{expr: types.ExprString(sel.X), read: read, id: identity(pass, sel.X)}, op
}

// identity names the lock x denotes across the package's functions, so
// orders taken in different functions compare: a package-level
// variable is "pkg.name" (found by its object, so a local of the same
// name is not it), a struct field "pkg.Type.field", and a receiver
// embedding the mutex "pkg.Type.(embedded)". A value whose own type is
// a sync lock — a local mutex, a parameter — has no identity.
func identity(pass *analysis.Pass, x ast.Expr) string {
	var name *ast.Ident
	var owner ast.Expr // the struct value a field is selected from
	switch x := x.(type) {
	case *ast.Ident:
		name = x
	case *ast.SelectorExpr:
		name, owner = x.Sel, x.X
	default:
		return ""
	}
	v, ok := pass.TypesInfo.Uses[name].(*types.Var)
	switch {
	case !ok:
		return ""
	case v.IsField():
		if base := namedTypeOf(pass.TypesInfo.TypeOf(owner)); base != "" {
			return base + "." + v.Name()
		}
	case v.Pkg() != nil && v.Parent() == v.Pkg().Scope():
		return v.Pkg().Path() + "." + v.Name()
	case !isSyncLockType(v.Type()):
		if base := namedTypeOf(v.Type()); base != "" {
			return base + ".(embedded)"
		}
	}
	return ""
}

func isSyncLockType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
			return false
		}
		switch obj.Name() {
		case "Mutex", "RWMutex", "Locker":
			return true
		}
	case *types.Interface:
		// sync.Locker method sets resolve here when called through an
		// unnamed interface; accept any interface demanding Lock/Unlock.
		return t.NumMethods() > 0
	}
	return false
}

func namedTypeOf(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// reportInversions reports every lock pair acquired in both orders
// somewhere in the package, once per pair, at the later-seen site.
func reportInversions(pass *analysis.Pass, order map[orderEdge]token.Pos) {
	type finding struct {
		pos      token.Pos
		a, b     string
		otherPos token.Pos
	}
	var out []finding
	seen := map[orderEdge]bool{}
	for e, pos := range order {
		rev := orderEdge{e.to, e.from}
		revPos, ok := order[rev]
		if !ok || seen[e] || seen[rev] {
			continue
		}
		seen[e], seen[rev] = true, true
		// Report at the later site, referencing the earlier one.
		f := finding{pos: pos, a: e.from, b: e.to, otherPos: revPos}
		if revPos > pos {
			f = finding{pos: revPos, a: e.to, b: e.from, otherPos: pos}
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	for _, f := range out {
		pass.Reportf(f.pos, "lock order inversion: %s acquired while holding %s, but %s reverses the order (potential deadlock)",
			f.b, f.a, pass.Fset.Position(f.otherPos))
	}
}
