// Package driver runs the busylint analyzer suite in the two modes
// cmd/busylint supports:
//
//   - standalone (`busylint ./...`): packages are enumerated and
//     compiled with `go list -export -deps`, sources are re-parsed and
//     typechecked against the compiler's export data, and every
//     analyzer runs over every listed package;
//   - vet tool (`go vet -vettool=busylint ./...`): cmd/go drives one
//     invocation per package unit through the unit-checker config
//     protocol (vet.go).
//
// Both modes produce identical findings on a clean checkout because
// both load a package through loadPackage, which feeds analyzers the
// same inputs: the package's non-test files and full type information.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
)

// Finding is one diagnostic in driver output; the JSON form is the CI
// artifact future PRs diff finding counts against.
type Finding struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	Position string `json:"position"`
	Message  string `json:"message"`
}

// Report is the -json document: findings plus per-analyzer counts.
type Report struct {
	Findings []Finding      `json:"findings"`
	Counts   map[string]int `json:"counts"`
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Run loads the packages matching patterns under dir and applies the
// analyzers, returning findings sorted by package and position.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var targets []*listPackage
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		targets = append(targets, p)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	var out []Finding
	for _, p := range targets {
		paths := make([]string, len(p.GoFiles))
		for i, name := range p.GoFiles {
			paths[i] = filepath.Join(p.Dir, name)
		}
		pkg, err := loadPackage(fset, imp, p.ImportPath, paths)
		if err != nil {
			return nil, err
		}
		diags, err := analysis.Run(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			out = append(out, Finding{
				Analyzer: d.Analyzer,
				Package:  p.ImportPath,
				Position: fset.Position(d.Pos).String(),
				Message:  d.Message,
			})
		}
	}
	return out, nil
}

func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		p := new(listPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// loadPackage parses the files at paths, typechecks them as importPath
// against imp, and returns what analyzers see: full type information,
// but only the non-test files. A vet unit's test variant still
// typechecks with its extra files; it just produces no extra findings.
// This one filter is what keeps the two drivers' finding counts equal.
func loadPackage(fset *token.FileSet, imp types.Importer, importPath string, paths []string) (*analysis.Package, error) {
	var files, prod []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		if !analysis.IsTestFile(path) {
			prod = append(prod, f)
		}
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", importPath, err)
	}
	return &analysis.Package{Fset: fset, Files: prod, Types: tpkg, Info: info}, nil
}

// Main is the standalone entry point: it parses busylint's own flags,
// runs the suite, prints findings (text, the -json Report, or a -sarif
// log) and returns the process exit code (0 clean, 1 findings, 2
// failure).
func Main(args []string, analyzers []*analysis.Analyzer) int {
	jsonOut := false
	sarifOut := false
	var patterns []string
	for _, a := range args {
		switch a {
		case "-json", "--json":
			jsonOut = true
		case "-sarif", "--sarif":
			sarifOut = true
		case "-h", "-help", "--help":
			usage(analyzers)
			return 0
		default:
			patterns = append(patterns, a)
		}
	}
	if jsonOut && sarifOut {
		fmt.Fprintln(os.Stderr, "busylint: -json and -sarif are mutually exclusive")
		return 2
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := Run(".", patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "busylint:", err)
		return 2
	}
	switch {
	case sarifOut:
		base, err := os.Getwd()
		if err != nil {
			base = ""
		}
		if err := WriteSARIF(os.Stdout, base, findings, analyzers); err != nil {
			fmt.Fprintln(os.Stderr, "busylint:", err)
			return 2
		}
	case jsonOut:
		rep := Report{Findings: findings, Counts: map[string]int{}}
		if rep.Findings == nil {
			rep.Findings = []Finding{}
		}
		for _, a := range analyzers {
			rep.Counts[a.Name] = 0
		}
		for _, f := range findings {
			rep.Counts[f.Analyzer]++
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "busylint:", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Printf("%s: %s [busylint/%s]\n", f.Position, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

func usage(analyzers []*analysis.Analyzer) {
	fmt.Println("busylint [-json|-sarif] [packages]")
	fmt.Println()
	fmt.Println("busylint is this repository's invariant checker. Analyzers:")
	fmt.Println()
	for _, a := range analyzers {
		fmt.Printf("  %-16s %s\n", a.Name, a.Doc)
	}
	fmt.Println()
	fmt.Println("Also usable as `go vet -vettool=$(which busylint) ./...`.")
	fmt.Println("Suppress one finding with `//lint:ignore busylint/<name> reason`.")
}
