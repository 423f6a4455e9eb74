// Package registryhygiene keeps the algorithm registry complete and
// self-describing — the property the conformance harness and fuzz
// targets rely on to auto-cover every algorithm: if a solver is not
// registered, or registered without classes and a guarantee, the
// harness silently never generates instances for it.
//
// Two checks:
//
//  1. Every exported constructor-shaped function in the algorithm
//     packages the registry imports (a package function returning
//     core.Schedule / core.RectSchedule, optionally with an error, or a
//     value implementing online.Strategy) must be referenced somewhere
//     in the registry package or carry an entry with a reason in
//     registry.UnregisteredOK. Stale and reasonless waivers are
//     themselves findings.
//
//  2. Every registry.Algorithm literal must declare a non-empty Classes
//     list and a non-empty Guarantee string, so a registration can
//     never silently opt out of class-restricted conformance coverage.
package registryhygiene

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Configuration; tests override these to point at fixtures.
var (
	// RegistryPath is the package that owns builtins.go and the waiver
	// list.
	RegistryPath = "repro/internal/registry"
	// AlgoPrefixes are the packages whose exported constructors must be
	// registered.
	AlgoPrefixes = []string{
		"repro/internal/core",
		"repro/internal/exact",
		"repro/internal/online",
	}
	// ConcreteResults are "pkgpath.TypeName" result types identifying a
	// constructor (returned by value or pointer).
	ConcreteResults = []string{
		"repro/internal/core.Schedule",
		"repro/internal/core.RectSchedule",
	}
	// IfaceResults are "pkgpath.InterfaceName" result interfaces
	// identifying a constructor (any implementing result counts).
	IfaceResults = []string{
		"repro/internal/online.Strategy",
	}
	// WaiverVar names the map[string]string in the registry package
	// listing deliberately unregistered constructors with reasons.
	WaiverVar = "UnregisteredOK"
)

// Analyzer is the busylint/registryhygiene analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "registryhygiene",
	Doc: "every exported algorithm constructor must be registered (or waived with a reason in " +
		"UnregisteredOK), and every registration must declare non-empty Classes and a Guarantee",
	Run: run,
}

func run(pass *analysis.Pass) error {
	checkAlgorithmLiterals(pass)
	if pass.Pkg.Path() != RegistryPath {
		return nil
	}
	refs := referencedNames(pass)
	waivers := parseWaivers(pass)
	ctors := constructors(pass.Pkg)

	keys := make([]string, 0, len(ctors))
	for key := range ctors {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if refs[key] {
			if w, ok := waivers.entries[key]; ok {
				pass.Reportf(w.pos, "stale waiver: %s is registered (referenced from the registry package); delete the entry", key)
			}
			continue
		}
		if _, ok := waivers.entries[key]; ok {
			continue
		}
		pass.Reportf(importPos(pass, ctors[key]),
			"exported constructor %s is neither registered in the registry package nor waived in %s", key, WaiverVar)
	}
	for key, w := range waivers.entries {
		if _, ok := ctors[key]; !ok {
			pass.Reportf(w.pos, "stale waiver: %s does not name an exported constructor of an imported algorithm package", key)
		}
	}
	return nil
}

// referencedNames collects every "pkgpath.Name" the registry package
// mentions for objects living in the algorithm packages.
func referencedNames(pass *analysis.Pass) map[string]bool {
	refs := map[string]bool{}
	for _, obj := range pass.TypesInfo.Uses {
		if obj == nil || obj.Pkg() == nil {
			continue
		}
		if analysis.InScope(obj.Pkg().Path(), AlgoPrefixes) {
			refs[obj.Pkg().Path()+"."+obj.Name()] = true
		}
	}
	return refs
}

// constructors enumerates the constructor-shaped exported functions of
// the algorithm packages the registry imports, keyed "pkgpath.Name".
func constructors(registry *types.Package) map[string]*types.Package {
	out := map[string]*types.Package{}
	for _, imp := range registry.Imports() {
		if !analysis.InScope(imp.Path(), AlgoPrefixes) {
			continue
		}
		scope := imp.Scope()
		for _, name := range scope.Names() {
			fn, ok := scope.Lookup(name).(*types.Func)
			if !ok || !fn.Exported() {
				continue
			}
			if isConstructor(fn.Type().(*types.Signature)) {
				out[imp.Path()+"."+name] = imp
			}
		}
	}
	return out
}

func isConstructor(sig *types.Signature) bool {
	if sig.Recv() != nil || sig.TypeParams() != nil {
		return false
	}
	// A function-typed parameter marks a combinator (a solver wrapper
	// taking another solver), not a registrable constructor.
	for i := 0; i < sig.Params().Len(); i++ {
		if _, ok := sig.Params().At(i).Type().Underlying().(*types.Signature); ok {
			return false
		}
	}
	res := sig.Results()
	switch res.Len() {
	case 1:
	case 2:
		if !isErrorType(res.At(1).Type()) {
			return false
		}
	default:
		return false
	}
	return matchesResult(res.At(0).Type())
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func matchesResult(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			key := obj.Pkg().Path() + "." + obj.Name()
			for _, want := range ConcreteResults {
				if key == want {
					return true
				}
			}
		}
	}
	for _, want := range IfaceResults {
		// The interface name follows the last dot (package paths may
		// themselves be dotted).
		i := strings.LastIndex(want, ".")
		if i < 0 {
			continue
		}
		pkgPath, name := want[:i], want[i+1:]
		iface := lookupInterface(pkgPath, name, t)
		if iface != nil && !iface.Empty() && types.Implements(t, iface) {
			return true
		}
	}
	return false
}

// lookupInterface resolves pkgPath.name to an interface using the
// package graph reachable from t's package.
func lookupInterface(pkgPath, name string, t types.Type) *types.Interface {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	pkg := named.Obj().Pkg()
	var target *types.Package
	if pkg.Path() == pkgPath {
		target = pkg
	} else {
		for _, imp := range pkg.Imports() {
			if imp.Path() == pkgPath {
				target = imp
				break
			}
		}
	}
	if target == nil {
		return nil
	}
	obj := target.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// importPos returns the position of the import of pkg in the registry
// files, falling back to the first file's package clause.
func importPos(pass *analysis.Pass, pkg *types.Package) token.Pos {
	for _, file := range pass.Files {
		for _, spec := range file.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil && path == pkg.Path() {
				return spec.Pos()
			}
		}
	}
	if len(pass.Files) > 0 {
		return pass.Files[0].Package
	}
	return token.NoPos
}

type waiver struct {
	pos token.Pos
}

type waiverSet struct {
	entries map[string]waiver
}

// parseWaivers reads the WaiverVar map literal. Keys must be string
// literals and reasons non-empty string literals; anything else is
// reported (a waiver the analyzer cannot read is no waiver at all).
func parseWaivers(pass *analysis.Pass) waiverSet {
	ws := waiverSet{entries: map[string]waiver{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != WaiverVar || len(vs.Values) != 1 {
					continue
				}
				lit, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok {
					pass.Reportf(vs.Pos(), "%s must be a map[string]string composite literal", WaiverVar)
					continue
				}
				for _, elt := range lit.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, okK := stringLit(kv.Key)
					reason, okV := stringLit(kv.Value)
					switch {
					case !okK || !okV:
						pass.Reportf(kv.Pos(), "%s entries must be string literals so the analyzer can read them", WaiverVar)
					case strings.TrimSpace(reason) == "":
						pass.Reportf(kv.Pos(), "waiver for %s has no reason; reasonless waivers do not waive", key)
					default:
						ws.entries[key] = waiver{pos: kv.Pos()}
					}
				}
			}
		}
	}
	return ws
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// checkAlgorithmLiterals enforces, in any package, that a
// registry.Algorithm composite literal declares non-empty Classes and a
// non-empty Guarantee.
func checkAlgorithmLiterals(pass *analysis.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 || !isAlgorithmLit(pass, lit) {
				return true // Algorithm{} is a zero value, not a registration
			}
			var classes, guarantee ast.Expr
			positional := false
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					positional = true
					break
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					switch id.Name {
					case "Classes":
						classes = kv.Value
					case "Guarantee":
						guarantee = kv.Value
					}
				}
			}
			if positional {
				return true // a positional literal fills every field explicitly
			}
			switch c := classes.(type) {
			case nil:
				pass.Reportf(lit.Pos(), "Algorithm registration must declare Classes (use the General class for unrestricted algorithms)")
			case *ast.CompositeLit:
				if len(c.Elts) == 0 {
					pass.Reportf(c.Pos(), "Algorithm registration declares empty Classes; conformance would never cover it")
				}
			}
			switch g := guarantee.(type) {
			case nil:
				pass.Reportf(lit.Pos(), "Algorithm registration must declare a Guarantee (\"heuristic\" or \"empirical\" are fine; silence is not)")
			case *ast.BasicLit:
				if s, ok := stringLit(g); ok && strings.TrimSpace(s) == "" {
					pass.Reportf(g.Pos(), "Algorithm registration declares an empty Guarantee")
				}
			}
			return true
		})
	}
}

func isAlgorithmLit(pass *analysis.Pass, lit *ast.CompositeLit) bool {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == RegistryPath && obj.Name() == "Algorithm"
}
