// Package errpanic implements the mdvet analyzer that bans bare panics in
// the library packages the serve layer links against. A panic in
// internal/{md,kmc,halo,couple,serve,lattice,eam} wedges a multi-tenant mdserve
// process: the job-server contract (DESIGN.md §16) is that every failure
// either returns an error (so the scheduler fails one job) or rides the
// rank-abort machinery (mpi converts rank panics into RunE errors).
//
// A panic call is reported unless an //mdvet:ignore errpanic <reason>
// directive on the same or the preceding line licenses it. Two classes are
// legitimate and must say which they are in the reason:
//
//   - invariant violations a peer rank caused (ghost-protocol unpackers):
//     the mpi runtime converts the panic into a RankPanic error on the
//     world, so panicking *is* the error return;
//   - genuinely unreachable states (exhaustive switches over validated
//     input).
//
// Test files are exempt: tests panic freely via t.Fatal machinery and
// deliberately-broken fixtures.
package errpanic

import (
	"go/ast"

	"mdkmc/internal/analysis"
)

// Analyzer is the errpanic check.
var Analyzer = &analysis.Analyzer{
	Name: "errpanic",
	Doc:  "flag bare panics in library packages that must fail by returned error",
	Run:  run,
}

// protected are the library package paths (and their subtrees) the serve
// layer depends on for forward progress.
var protected = []string{
	"mdkmc/internal/md",
	"mdkmc/internal/kmc",
	"mdkmc/internal/halo",
	"mdkmc/internal/couple",
	"mdkmc/internal/serve",
	"mdkmc/internal/lattice",
	"mdkmc/internal/eam",
}

func run(p *analysis.Pass) error {
	for _, f := range p.ScopedFiles(protected, true) {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && analysis.IsBuiltinCall(p.TypesInfo, call, "panic") {
				p.Reportf(call.Pos(), "bare panic in library package %s: return an error (or ride the rank-abort machinery) so the serve layer fails one job instead of the process; annotate //mdvet:ignore errpanic <reason> if the panic is the contract", p.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
