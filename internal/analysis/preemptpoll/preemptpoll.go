// Package preemptpoll implements the mdvet analyzer guarding the
// checkpoint/preemption contract of the coupled-run era (DESIGN.md
// §13–16). It enforces two rules, both interprocedural through the
// callgraph summary:
//
//  1. Poll reachability: in the coupling packages (the mdkmc facade and
//     internal/couple), every loop that advances the simulation — a call
//     to a Step/Cycle method of the md, kmc, or okmc engines — must reach
//     a checkpoint boundary: couple.Preemptor.Poll, mpi.Comm.FaultPoint,
//     or a function annotated //mdvet:boundary (directly, or through
//     same-package helpers). The loops this guards are the run driver's
//     stage loops (couple/driver.go), which call the engines directly and
//     reach both leaves through the driver's boundary method; the facade
//     holds no loop and must not grow one. A loop that advances without
//     polling can never honor a preemption request: the serve layer's
//     evictions stall until the stage completes, which is exactly the
//     grant-latency bug class the job server's checkpoint-boundary
//     preemption exists to avoid. The check is per innermost advancing
//     loop; an anneal loop with genuinely no checkpointable mid-state
//     carries an //mdvet:ignore preemptpoll <reason>.
//
//  2. Collective symmetry across calls: collsym flags a collective
//     lexically guarded by a rank-dependent condition, but only within
//     one function body. preemptpoll extends the same contract across
//     function boundaries: a rank-guarded call to a function that
//     (transitively, through same-package bodies) enters a collective —
//     including collective *methods* like Preemptor.Poll, which collsym's
//     directive matching cannot see — is the same mismatched-collective
//     deadlock one hop removed.
//
// Soundness limits are the callgraph summary's: calls through function
// values or interfaces contribute no edges (rule 1 may report a loop that
// polls through a callback; suppress with a directive), and bodies in
// other packages are opaque (rule 2 only sees one package deep plus the
// known cross-package collectives). Test files are skipped: harnesses
// loop and guard on ranks deliberately.
package preemptpoll

import (
	"go/ast"
	"go/types"
	"strings"

	"mdkmc/internal/analysis"
	"mdkmc/internal/analysis/callgraph"
)

// Analyzer is the preemptpoll check.
var Analyzer = &analysis.Analyzer{
	Name: "preemptpoll",
	Doc:  "simulation-advancing loops must reach a preemption boundary; Poll must stay rank-symmetric",
	Run:  run,
}

// pollPkgs are the packages rule 1 applies to: where the preemption
// contract lives.
var pollPkgs = []string{"mdkmc", "mdkmc/internal/couple"}

// enginePkgs are the packages whose Step/Cycle methods advance the
// simulation.
var enginePkgs = map[string]bool{
	"mdkmc/internal/md":   true,
	"mdkmc/internal/kmc":  true,
	"mdkmc/internal/okmc": true,
}

const (
	couplePath    = "mdkmc/internal/couple"
	mpiPath       = "mdkmc/internal/mpi"
	telemetryPath = "mdkmc/internal/telemetry"
)

// commCollectives mirrors collsym's mpi collective set.
var commCollectives = map[string]bool{
	"Barrier":   true,
	"Allreduce": true,
	"Allgather": true,
	"Broadcast": true,
	"Bcast":     true,
}

func inPkgs(path string, pkgs []string) bool {
	for _, p := range pkgs {
		// "pkg [pkg.test]" is the in-package test variant the vet driver
		// hands us; its non-test files still carry the contract.
		if path == p || strings.HasPrefix(path, p+" ") {
			return true
		}
	}
	return false
}

// methodOn decomposes fn into (package path, receiver type name, method
// name); ok is false for non-methods.
func methodOn(fn *types.Func) (pkg, recv, name string, ok bool) {
	sig, sok := fn.Type().(*types.Signature)
	if !sok || sig.Recv() == nil {
		return "", "", "", false
	}
	rt := sig.Recv().Type()
	if ptr, pok := rt.(*types.Pointer); pok {
		rt = ptr.Elem()
	}
	named, nok := rt.(*types.Named)
	if !nok || named.Obj().Pkg() == nil {
		return "", "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), fn.Name(), true
}

// isAdvance reports whether fn is an engine Step/Cycle method — the run
// driver's advance calls: its stage loops step the engines directly, not
// through a function value the callgraph could not follow.
func isAdvance(fn *types.Func) bool {
	pkg, _, name, ok := methodOn(fn)
	return ok && enginePkgs[pkg] && (name == "Step" || name == "Cycle")
}

// isPollLeaf reports whether fn is a checkpoint boundary by itself.
func isPollLeaf(fn *types.Func) bool {
	pkg, recv, name, ok := methodOn(fn)
	if !ok {
		return false
	}
	return (pkg == couplePath && recv == "Preemptor" && name == "Poll") ||
		(pkg == mpiPath && recv == "Comm" && name == "FaultPoint")
}

// isCollectiveLeaf reports whether fn enters a collective by itself: the
// mpi collectives, telemetry.Aggregate, Preemptor.Poll, or a same-package
// declaration annotated //mdvet:collective.
func isCollectiveLeaf(p *analysis.Pass, g *callgraph.Graph, fn *types.Func) bool {
	if pkg, recv, name, ok := methodOn(fn); ok {
		if pkg == mpiPath && ((recv == "Comm" && commCollectives[name]) || (recv == "Win" && name == "Fence")) {
			return true
		}
		if pkg == couplePath && recv == "Preemptor" && name == "Poll" {
			return true
		}
	} else if fn.Pkg() != nil && fn.Pkg().Path() == telemetryPath && fn.Name() == "Aggregate" {
		return true
	}
	return p.Dirs.IsCollective(declOf(p, g, fn))
}

// collsymDirect reports whether collsym itself would flag a guarded call
// to fn — those are skipped here to avoid double reports.
func collsymDirect(p *analysis.Pass, g *callgraph.Graph, fn *types.Func) bool {
	if pkg, recv, name, ok := methodOn(fn); ok {
		return pkg == mpiPath && ((recv == "Comm" && commCollectives[name]) || (recv == "Win" && name == "Fence"))
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == telemetryPath && fn.Name() == "Aggregate" {
		return true
	}
	// Same-package plain functions annotated //mdvet:collective.
	return fn.Pkg() == p.Pkg && p.Dirs.IsCollective(declOf(p, g, fn))
}

// declOf is DeclOf restricted to the analyzed package.
func declOf(p *analysis.Pass, g *callgraph.Graph, fn *types.Func) *ast.FuncDecl {
	if fn == nil || fn.Pkg() != p.Pkg {
		return nil
	}
	return g.DeclOf(fn)
}

// reachesBoundary reports whether a call to fn satisfies the poll
// contract: fn is a boundary leaf, is annotated //mdvet:boundary, or
// reaches either through same-package bodies.
func reachesBoundary(p *analysis.Pass, g *callgraph.Graph, fn *types.Func) bool {
	pred := func(callee *types.Func) bool {
		return isPollLeaf(callee) || p.Dirs.IsBoundary(declOf(p, g, callee))
	}
	if pred(fn) {
		return true
	}
	if declOf(p, g, fn) == nil {
		return false
	}
	return g.FindTransitive(fn, pred) != nil
}

func run(p *analysis.Pass) error {
	g := callgraph.New(p.Files, p.TypesInfo)
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if inPkgs(p.Pkg.Path(), pollPkgs) {
				checkLoops(p, g, fn)
			}
			checkGuardedCalls(p, g, fn)
		}
	}
	return nil
}

// checkLoops applies rule 1 to one function: the innermost loop around
// every engine-advance call must contain a boundary-reaching call.
func checkLoops(p *analysis.Pass, g *callgraph.Graph, fn *ast.FuncDecl) {
	// flagged dedupes: one report per loop however many advance calls it
	// holds.
	flagged := map[ast.Node]bool{}
	var loops []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		pushed := false
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
			pushed = true
		case *ast.CallExpr:
			call := n.(*ast.CallExpr)
			callee := callgraph.CalleeOf(p.TypesInfo, call)
			if callee != nil && isAdvance(callee) && len(loops) > 0 {
				loop := loops[len(loops)-1]
				if !flagged[loop] && !loopHasBoundary(p, g, loop) {
					flagged[loop] = true
					p.Reportf(loop.Pos(), "loop advances the simulation via %s but reaches no preemption boundary (Preemptor.Poll, Comm.FaultPoint, or an //mdvet:boundary function): preemption requests stall until the whole stage completes", callee.Name())
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

// loopHasBoundary reports whether any call within the loop body reaches a
// preemption boundary.
func loopHasBoundary(p *analysis.Pass, g *callgraph.Graph, loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := callgraph.CalleeOf(p.TypesInfo, call)
		if callee != nil && reachesBoundary(p, g, callee) {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkGuardedCalls applies rule 2 to one function: walk with a
// rank-guard state (the collsym guard semantics) and flag guarded calls
// that enter a collective collsym cannot see.
func checkGuardedCalls(p *analysis.Pass, g *callgraph.Graph, fn *ast.FuncDecl) {
	var visit func(n ast.Node, guarded bool)
	visitList := func(list []ast.Stmt, guarded bool) {
		for _, s := range list {
			visit(s, guarded)
		}
	}
	visit = func(n ast.Node, guarded bool) {
		switch n := n.(type) {
		case nil:
		case *ast.IfStmt:
			if n.Init != nil {
				visit(n.Init, guarded)
			}
			gd := guarded || analysis.RankDependent(n.Cond)
			visit(n.Cond, guarded)
			visit(n.Body, gd)
			if n.Else != nil {
				visit(n.Else, gd)
			}
		case *ast.SwitchStmt:
			gd := guarded || (n.Tag != nil && analysis.RankDependent(n.Tag))
			for _, c := range n.Body.List {
				cc := c.(*ast.CaseClause)
				cg := gd
				for _, e := range cc.List {
					if analysis.RankDependent(e) {
						cg = true
					}
				}
				visitList(cc.Body, cg)
			}
		case *ast.ForStmt:
			gd := guarded || (n.Cond != nil && analysis.RankDependent(n.Cond))
			if n.Init != nil {
				visit(n.Init, guarded)
			}
			visit(n.Body, gd)
		case *ast.CallExpr:
			if guarded {
				reportGuarded(p, g, n)
			}
			for _, a := range n.Args {
				visit(a, guarded)
			}
			visit(n.Fun, guarded)
		case *ast.FuncLit:
			visit(n.Body, guarded)
		default:
			ast.Inspect(n, func(c ast.Node) bool {
				if c == nil || c == n {
					return true
				}
				switch c.(type) {
				case *ast.IfStmt, *ast.SwitchStmt, *ast.ForStmt, *ast.CallExpr, *ast.FuncLit:
					visit(c, guarded)
					return false
				}
				return true
			})
		}
	}
	visit(fn.Body, false)
}

// reportGuarded flags one rank-guarded call when its callee enters a
// collective invisible to collsym.
func reportGuarded(p *analysis.Pass, g *callgraph.Graph, call *ast.CallExpr) {
	callee := callgraph.CalleeOf(p.TypesInfo, call)
	if callee == nil || collsymDirect(p, g, callee) {
		return
	}
	// The callee is itself a collective collsym cannot match: a method
	// annotated //mdvet:collective (same package) or the cross-package
	// Preemptor.Poll.
	if isCollectiveLeaf(p, g, callee) {
		p.Reportf(call.Pos(), "collective %s is called under a rank-dependent condition: every rank must enter it or none (mismatched-collective deadlock)", callee.Name())
		return
	}
	if declOf(p, g, callee) == nil {
		return
	}
	pred := func(fn *types.Func) bool { return isCollectiveLeaf(p, g, fn) }
	if w := g.FindTransitive(callee, pred); w != nil {
		p.Reportf(call.Pos(), "rank-guarded call to %s transitively enters collective %s: ranks skipping this call diverge from the collective schedule", callee.Name(), w.Name())
	}
}
