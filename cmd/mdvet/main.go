// Command mdvet is the repository's domain-specific static-analysis gate
// (DESIGN.md §12). It runs eight analyzers that encode the determinism,
// collective-symmetry, and checkpoint/preemption contracts the paper's
// results rest on:
//
//	collsym      collectives — mpi's, the ones known by name, functions
//	             and methods marked //mdvet:collective, and helpers that
//	             reach one — under rank-dependent control flow, or skipped
//	             by a rank-dependent early exit
//	maporder     order-sensitive work inside map iteration
//	rngtime      wall-clock/global-rand use in deterministic packages
//	hotalloc     allocation hazards in //mdvet:hot functions
//	hashcover    struct fields invisible to the struct's Hash method
//	spanbalance  telemetry spans that do not End on every path
//	preemptpoll  simulation-advancing loops that reach no preemption
//	             boundary (Preemptor.Poll, Comm.FaultPoint)
//	errpanic     bare panics in the library packages the serve layer
//	             links against
//
// Exemptions are all one directive, //mdvet:ignore <analyzer> <reason>;
// an unused, unknown or misplaced //mdvet: comment is itself a finding.
//
// Two invocation modes:
//
//	mdvet [-stats] [packages]
//	                         standalone: loads and checks the packages
//	                         (default ./...) with the stdlib-only loader;
//	                         -stats prints the per-analyzer
//	                         reported/suppressed table after the run
//	go vet -vettool=$(pwd)/bin/mdvet ./...
//	                         unitchecker mode: the go command type-checks
//	                         and caches per package, invoking mdvet with a
//	                         *.cfg file (fastest for incremental runs, and
//	                         the only mode that sees _test.go files)
//
// Exit status: 0 clean, 1 internal error, 2 findings.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"strings"

	"mdkmc/internal/analysis"
	"mdkmc/internal/analysis/collsym"
	"mdkmc/internal/analysis/errpanic"
	"mdkmc/internal/analysis/hashcover"
	"mdkmc/internal/analysis/hotalloc"
	"mdkmc/internal/analysis/maporder"
	"mdkmc/internal/analysis/preemptpoll"
	"mdkmc/internal/analysis/rngtime"
	"mdkmc/internal/analysis/spanbalance"
)

// analyzers is the mdvet suite, in report order.
var analyzers = []*analysis.Analyzer{
	collsym.Analyzer,
	maporder.Analyzer,
	rngtime.Analyzer,
	hotalloc.Analyzer,
	hashcover.Analyzer,
	spanbalance.Analyzer,
	preemptpoll.Analyzer,
	errpanic.Analyzer,
}

func main() {
	args := os.Args[1:]
	// The go vet driver protocol: version stamp, flag discovery, then one
	// invocation per package with a JSON config file.
	for _, a := range args {
		if a == "-V=full" || a == "-V" {
			fmt.Println("mdvet version v2.0.0")
			return
		}
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}

	stats := false
	if len(args) > 0 && args[0] == "-stats" {
		stats = true
		args = args[1:]
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := analysis.Load(args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdvet:", err)
		os.Exit(1)
	}
	diags, perAnalyzer, err := analysis.CheckStats(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdvet:", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if stats {
		fmt.Printf("%-12s %9s %10s\n", "analyzer", "reported", "suppressed")
		for _, s := range perAnalyzer {
			fmt.Printf("%-12s %9d %10d\n", s.Analyzer, s.Reported, s.Suppressed)
		}
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// vetConfig mirrors the JSON the go command writes for -vettool drivers
// (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package described by a go vet config file,
// type-checking against the export data the go command already built.
func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdvet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mdvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command requires the facts output file to exist even though
	// mdvet's analyzers exchange no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "mdvet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "mdvet:", err)
			return 1
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("mdvet: no export data for %q", path)
		}
		return os.Open(file)
	}
	pkg, err := analysis.NewPackage(cfg.ImportPath, fset, files, importer.ForCompiler(fset, "gc", lookup))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "mdvet:", err)
		return 1
	}
	diags, err := analysis.Check([]*analysis.Package{pkg}, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdvet:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
