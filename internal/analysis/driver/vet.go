package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// vetConfig mirrors the JSON configuration cmd/go writes for a vet tool
// invocation (the x/tools unitchecker protocol): one file per package
// unit describing its sources and the export data of its dependencies.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standalone                bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// IsVetInvocation reports whether the argument list looks like cmd/go
// driving the tool through the vet protocol rather than a user running
// it standalone.
func IsVetInvocation(args []string) bool {
	for _, a := range args {
		if a == "-V=full" || a == "-flags" || strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}

// VetMain implements the `go vet -vettool=` protocol: the -V=full
// version handshake cmd/go hashes for its build cache, the -flags
// query, and the per-package .cfg run. It returns the process exit
// code.
func VetMain(args []string, analyzers []*analysis.Analyzer) int {
	for _, a := range args {
		switch {
		case a == "-V=full":
			return printVersion()
		case a == "-flags":
			fmt.Println("[]")
			return 0
		case strings.HasSuffix(a, ".cfg"):
			return vetUnit(a, analyzers)
		}
	}
	fmt.Fprintln(os.Stderr, "busylint: unrecognized vet-protocol invocation:", strings.Join(args, " "))
	return 2
}

// printVersion prints the "<name> version <id>" line cmd/go folds into
// its action cache key; hashing the executable makes rebuilt tools
// invalidate cached vet results.
func printVersion() int {
	name := filepath.Base(os.Args[0])
	exe, err := os.Executable()
	if err != nil {
		fmt.Printf("%s version devel\n", name)
		return 0
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Printf("%s version devel\n", name)
		return 0
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Printf("%s version devel\n", name)
		return 0
	}
	fmt.Printf("%s version devel buildID=%x\n", name, h.Sum(nil))
	return 0
}

func vetUnit(cfgPath string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "busylint:", err)
		return 2
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "busylint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// busylint exports no facts, but cmd/go expects the facts file to
	// exist before caching the action, so always write an empty one.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "busylint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		// Dependency-only invocation: cmd/go wants facts (we have
		// none), not diagnostics.
		return 0
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, err := loadPackage(fset, imp, cfg.ImportPath, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "busylint:", err)
		return 2
	}
	diags, err := analysis.Run(pkg, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "busylint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [busylint/%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
