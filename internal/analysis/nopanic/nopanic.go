// Package nopanic structurally prevents the class of bug PR 5 fixed by
// hand: a panic reachable from daemon handler or codec code. A panicking
// wire decode (the interval.New end < start case) takes down the whole
// connection goroutine with a 500 and a stack trace instead of the
// structured 400 the protocol promises, and log.Fatal/os.Exit in a
// handler kills the entire daemon mid-drain.
//
// The analyzer forbids, anywhere in internal/server: the panic builtin,
// log.Fatal*/log.Panic* (package functions and *log.Logger methods),
// os.Exit, and calls into a small denylist of library constructors that
// are documented to panic on invalid input and therefore must stay
// behind validation at the wire boundary.
package nopanic

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// ScopePrefixes lists the packages in which panicking is forbidden.
var ScopePrefixes = []string{"repro/internal/server"}

// Denylisted maps "pkgpath.Func" to why the function is forbidden:
// these are library entry points documented to panic on inputs that, in
// server code, can originate from the wire.
var Denylisted = map[string]string{
	"repro/internal/interval.New":                    "panics when end < start; validate and construct interval.Interval directly",
	"repro/internal/interval.WeightedMaxConcurrency": "panics on mismatched slice lengths; validate lengths first",
	"repro/internal/online.NewRatioTracker":          "panics when g < 1; use online.NewSession, which validates and errors",
}

// Analyzer is the busylint/nopanic analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "nopanic",
	Doc: "forbids panic, log.Fatal*/log.Panic*, os.Exit and known-panicking constructors in server " +
		"handler/codec code; wire-facing paths must return structured errors",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.Pkg.Path(), ScopePrefixes) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkCall(pass, call)
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok && b.Name() == "panic" {
			pass.Reportf(call.Pos(), "panic is forbidden in server code; return a structured error instead")
		}
	case *ast.SelectorExpr:
		obj := pass.TypesInfo.Uses[fun.Sel]
		if obj == nil || obj.Pkg() == nil {
			return
		}
		name := obj.Name()
		switch obj.Pkg().Path() {
		case "log":
			if strings.HasPrefix(name, "Fatal") || strings.HasPrefix(name, "Panic") {
				pass.Reportf(call.Pos(), "log.%s is forbidden in server code; log the error and return it", name)
			}
		case "os":
			if name == "Exit" {
				pass.Reportf(call.Pos(), "os.Exit is forbidden in server code; only main may decide the process exit")
			}
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
			key := obj.Pkg().Path() + "." + name
			if why, bad := Denylisted[key]; bad {
				pass.Reportf(call.Pos(), "%s %s", key, why)
			}
		}
	}
}
