// Package analysis is the mdvet static-analysis framework: a deliberately
// small, standard-library-only reimplementation of the subset of
// golang.org/x/tools/go/analysis that the repository's domain checkers
// need (the build environment is offline, so the x/tools module cannot be
// vendored; a Pass exposes the upstream field names so the analyzers port
// directly if the dependency ever becomes available).
//
// The framework exists to enforce, at compile time, the contracts the
// paper's results rest on and that this repo otherwise proves only
// dynamically (DESIGN.md §12):
//
//   - determinism: bit-identical trajectories for every worker count and
//     ghost protocol (DESIGN.md §7, §9), which forbids iteration-order-
//     dependent reductions;
//   - collective symmetry: every rank enters every mpi collective in the
//     same order (the Allgather generation race class), which forbids
//     rank-dependent collective call shapes;
//   - preemption, failure and observability: every advancing loop reaches
//     a checkpoint boundary, library code fails by returned error, and
//     every telemetry span ends.
//
// A rule a grep or a test enforces is not an analyzer: wall-clock reads and
// math/rand are rejected by `make determinism`, config-hash coverage by
// TestConfigHashCoversEveryField, and kernel allocations by the
// AllocsPerRun pins.
//
// An analyzer inspects one type-checked package at a time through a Pass
// and reports Diagnostics. Besides the driver (Check, Load) the package is
// the analyzers' shared matcher core — each question two analyzers ask is
// answered here once: MethodOn/IsMethod (which method is this callee),
// IsBuiltinCall, PropagatesError (the rank-abort exemption), InspectFunc
// and ParentMap (scope-local walks), RankDependent/WalkRankGuarded (the
// rank-guard state), Package.Graph (one call-graph summary per package)
// and Package.ScopedFiles (which files a path-scoped contract covers).
//
// Two source-level directives tune the checks:
//
//	//mdvet:ignore <analyzer> <reason>   suppress that analyzer's findings
//	                                     on this or the next line; the
//	                                     reason is mandatory. This is the
//	                                     one exemption form: a licensed
//	                                     panic is `ignore errpanic`
//	//mdvet:collective                   (func doc) every rank must call
//	                                     this function or method in
//	                                     lockstep — collsym treats it like
//	                                     an mpi collective
//
// Directives are themselves audited: an ignore that suppresses nothing
// after every analyzer ran is reported as stale, and an unknown or
// misplaced //mdvet: comment is a finding, not a silent no-op
// (Directives.Stale and Directives.Bad, folded into Check).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mdkmc/internal/analysis/callgraph"
)

// An Analyzer is one named check. Run inspects the package in the Pass and
// reports findings via Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass connects one Analyzer run to one type-checked package, whose
// fields (Fset, Files, Pkg, TypesInfo, Dirs) it exposes by embedding.
type Pass struct {
	Analyzer *Analyzer
	*Package

	sink       *[]Diagnostic
	suppressed *int
}

// Reportf records a finding unless an //mdvet:ignore directive for this
// analyzer covers the position (counted as a suppression for Stats).
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.Dirs.Ignored(p.Analyzer.Name, position) {
		*p.suppressed++
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Package is one loaded, parsed, and type-checked package ready for
// analysis.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Dirs      *Directives

	graph *callgraph.Graph
}

// NewPackage type-checks the parsed files as package path, resolving
// imports through imp, and parses their //mdvet: directives. It is the one
// constructor behind all three front ends (the standalone loader, the go
// vet unitchecker mode, the fixture loader).
func NewPackage(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Pkg: tpkg, TypesInfo: info, Dirs: NewDirectives(fset, files)}, nil
}

// Graph returns the package's call-graph summary, built on first use and
// shared by every analyzer that runs over the package.
func (p *Package) Graph() *callgraph.Graph {
	if p.graph == nil {
		p.graph = callgraph.New(p.Files, p.TypesInfo)
	}
	return p.graph
}

// ScopedFiles returns the files a contract scoped to pkgs covers: the
// package's non-test files when its import path is one of pkgs (or, with
// subtree, below one), else nil. The vet driver's in-package test variant
// "pkg [pkg.test]" counts as pkg — its non-test files still carry the
// contract — while _test.go files never do: harnesses panic, read the
// clock, and loop without polling on purpose.
func (p *Package) ScopedFiles(pkgs []string, subtree bool) []*ast.File {
	path, _, _ := strings.Cut(p.Pkg.Path(), " ")
	for _, scope := range pkgs {
		if path == scope || subtree && strings.HasPrefix(path, scope+"/") {
			var files []*ast.File
			for _, f := range p.Files {
				if !strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
					files = append(files, f)
				}
			}
			return files
		}
	}
	return nil
}

// runAnalyzer applies one analyzer to one package and returns its
// findings, counting the ones an //mdvet:ignore swallowed in *suppressed.
func runAnalyzer(pkg *Package, a *Analyzer, suppressed *int) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{Analyzer: a, Package: pkg, sink: &diags, suppressed: suppressed}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Pkg.Path(), err)
	}
	return diags, nil
}

// Stats counts one analyzer's outcomes across a Check run: findings that
// reached the report and findings an //mdvet:ignore swallowed. The
// contrast makes "clean" distinguishable from "suppressed" in CI logs.
type Stats struct {
	Analyzer   string
	Reported   int
	Suppressed int
}

// Check applies every analyzer to every package, appends one diagnostic
// per malformed or stale //mdvet: directive, and returns the findings
// sorted by position.
func Check(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := CheckStats(pkgs, analyzers)
	return diags, err
}

// CheckStats is Check plus the per-analyzer reported/suppressed counts,
// in analyzer order. Stale-directive detection runs after the full suite:
// a suppression directive no analyzer used across the whole run is dead
// and reported at its own position.
func CheckStats(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Stats, error) {
	stats := make([]Stats, len(analyzers))
	for i, a := range analyzers {
		stats[i].Analyzer = a.Name
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, pkg.Dirs.Bad()...)
		for i, a := range analyzers {
			ds, err := runAnalyzer(pkg, a, &stats[i].Suppressed)
			if err != nil {
				return nil, nil, err
			}
			stats[i].Reported += len(ds)
			diags = append(diags, ds...)
		}
	}
	// Every analyzer has now run over every package, so any suppression
	// directive still unused is stale.
	for _, pkg := range pkgs {
		diags = append(diags, pkg.Dirs.Stale()...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, stats, nil
}
