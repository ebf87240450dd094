// Package preemptpoll implements the mdvet analyzer guarding the
// checkpoint/preemption contract of the coupled-run era (DESIGN.md
// §13–16): poll reachability. In the coupling packages (the mdkmc facade
// and internal/couple), every loop that advances the simulation — a call
// to a Step/Cycle method of the md, kmc, or okmc engines — must reach a
// checkpoint boundary, couple.Preemptor.Poll or mpi.Comm.FaultPoint,
// directly or through same-package helpers (the callgraph summary). The
// loops this guards are the run driver's stage loops (couple/driver.go),
// which call the engines directly and reach both leaves through the
// driver's boundary method; the facade holds no loop and must not grow
// one. A loop that advances without polling can never honor a preemption
// request: the serve layer's evictions stall until the stage completes,
// which is exactly the grant-latency bug class the job server's
// checkpoint-boundary preemption exists to avoid. The check is per
// innermost advancing loop; an anneal loop with genuinely no
// checkpointable mid-state carries an //mdvet:ignore preemptpoll <reason>.
//
// That Poll itself stays rank-symmetric is collsym's contract, not this
// analyzer's. Soundness limits are the callgraph summary's: calls through
// function values or interfaces contribute no edges, so a loop that polls
// through a callback is reported (suppress with a directive). Test files
// are skipped: harnesses loop without polling deliberately.
package preemptpoll

import (
	"go/ast"
	"go/types"

	"mdkmc/internal/analysis"
	"mdkmc/internal/analysis/callgraph"
)

// Analyzer is the preemptpoll check.
var Analyzer = &analysis.Analyzer{
	Name: "preemptpoll",
	Doc:  "simulation-advancing loops must reach a preemption boundary",
	Run:  run,
}

// pollPkgs are the packages the rule applies to: where the preemption
// contract lives.
var pollPkgs = []string{"mdkmc", "mdkmc/internal/couple"}

// enginePkgs are the packages whose Step/Cycle methods advance the
// simulation.
var enginePkgs = map[string]bool{
	"mdkmc/internal/md":   true,
	"mdkmc/internal/kmc":  true,
	"mdkmc/internal/okmc": true,
}

// isAdvance reports whether fn is an engine Step/Cycle method — the run
// driver's advance calls: its stage loops step the engines directly, not
// through a function value the callgraph could not follow.
func isAdvance(fn *types.Func) bool {
	pkg, _, name, ok := analysis.MethodOn(fn)
	return ok && enginePkgs[pkg] && (name == "Step" || name == "Cycle")
}

// isBoundary reports whether fn is a checkpoint boundary by itself.
func isBoundary(fn *types.Func) bool {
	return analysis.IsMethod(fn, "mdkmc/internal/couple", "Preemptor", "Poll") ||
		analysis.IsMethod(fn, "mdkmc/internal/mpi", "Comm", "FaultPoint")
}

func run(p *analysis.Pass) error {
	for _, fn := range analysis.Funcs(p.ScopedFiles(pollPkgs, false)) {
		checkLoops(p, fn)
	}
	return nil
}

// checkLoops checks one function: the innermost loop around every
// engine-advance call must contain a boundary-reaching call.
func checkLoops(p *analysis.Pass, fn *ast.FuncDecl) {
	// flagged dedupes: one report per loop however many advance calls it
	// holds.
	flagged := map[ast.Node]bool{}
	var loops []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		pushed := false
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
			pushed = true
		case *ast.CallExpr:
			callee := callgraph.CalleeOf(p.TypesInfo, n)
			if callee != nil && isAdvance(callee) && len(loops) > 0 {
				loop := loops[len(loops)-1]
				if !flagged[loop] && !loopHasBoundary(p, loop) {
					flagged[loop] = true
					p.Reportf(loop.Pos(), "loop advances the simulation via %s but reaches no preemption boundary (Preemptor.Poll or Comm.FaultPoint): preemption requests stall until the whole stage completes", callee.Name())
				}
			}
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return c == n
			}
			walk(c)
			return false
		})
		if pushed {
			loops = loops[:len(loops)-1]
		}
	}
	walk(fn.Body)
}

// loopHasBoundary reports whether any call within the loop is a preemption
// boundary or reaches one through same-package bodies.
func loopHasBoundary(p *analysis.Pass, loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			callee := callgraph.CalleeOf(p.TypesInfo, call)
			found = callee != nil && (isBoundary(callee) || p.Graph().FindTransitive(callee, isBoundary) != nil)
		}
		return !found
	})
	return found
}
