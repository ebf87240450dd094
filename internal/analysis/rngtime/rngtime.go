// Package rngtime implements the mdvet analyzer that keeps nondeterminism
// sources out of the deterministic simulation packages (DESIGN.md §7):
// internal/md, internal/kmc, internal/couple, and internal/lattice must
// produce bit-identical trajectories from the seed alone, so they may not
// read the wall clock (time.Now/Since/Until) or draw from the global
// math/rand generator. Random numbers come from internal/rng streams
// derived from the run seed; wall-clock observability goes through
// telemetry.Span, the one sanctioned clock, whose readings land in a
// registry and never feed simulation state.
package rngtime

import (
	"go/ast"
	"go/types"

	"mdkmc/internal/analysis"
)

// Analyzer is the rngtime check.
var Analyzer = &analysis.Analyzer{
	Name: "rngtime",
	Doc:  "forbid wall-clock reads and global math/rand in the deterministic simulation packages",
	Run:  run,
}

// protectedPkgs are the deterministic packages (and their subtrees).
// internal/serve joins the simulation packages: the job scheduler's state
// machine must be replayable from submission order alone, so its timestamps
// come from an injected Clock (the wall clock lives in cmd/mdserve).
var protectedPkgs = []string{
	"mdkmc/internal/md",
	"mdkmc/internal/kmc",
	"mdkmc/internal/couple",
	"mdkmc/internal/lattice",
	"mdkmc/internal/serve",
}

// clockFuncs are the wall-clock reads of package time.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(p *analysis.Pass) error {
	for _, f := range p.ScopedFiles(protectedPkgs, true) {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.TypesInfo.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch path := pn.Imported().Path(); {
			case path == "time" && clockFuncs[sel.Sel.Name]:
				p.Reportf(sel.Pos(), "time.%s in deterministic package %s: wall-clock reads go through telemetry.Span, the one sanctioned clock, never into simulation state",
					sel.Sel.Name, p.Pkg.Path())
			case path == "math/rand" || path == "math/rand/v2":
				p.Reportf(sel.Pos(), "%s.%s in deterministic package %s: draw from an internal/rng stream derived from the run seed so trajectories replay bit-identically",
					path, sel.Sel.Name, p.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
