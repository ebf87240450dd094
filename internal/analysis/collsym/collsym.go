// Package collsym implements the mdvet analyzer that enforces the
// collective-symmetry contract: every rank of an mpi world must enter
// every collective in lockstep. A collective reached by only some ranks is
// the mismatched-collective deadlock class — the Allgather generation race
// fixed in PR 4 is the canonical specimen. It is the only analyzer that
// knows what a collective is (isCollective): the mpi collectives
// (Barrier, Allreduce, Allgather, Broadcast, Win.Fence), the functions
// documented as collective across packages (telemetry.Aggregate,
// couple.Preemptor.Poll), any function or method of the analyzed package
// marked //mdvet:collective, and any function of the analyzed package that
// reaches one of those through the call-graph summary — the same deadlock
// one or more calls removed.
//
// Two shapes are flagged:
//
//  1. A collective call guarded by a rank-dependent condition
//     (`if c.Rank() == 0 { c.Barrier() }`): the guarded ranks block
//     forever while the rest never arrive.
//
//  2. A rank-dependent early exit (return/break/continue) that skips a
//     collective appearing later in the same function. Propagating a
//     non-nil error upward is exempt (analysis.PropagatesError): mpi.RunE
//     converts a rank-local error return into a world abort that wakes
//     every blocked survivor, so `if c.Rank() == 0 { ...; return err }`
//     cannot strand peers. A bare `return nil` (or a return from a
//     function without an error result) has no such safety net and is
//     reported.
//
// What makes a statement rank-guarded is analysis.WalkRankGuarded's
// definition. The transitive part inherits the call graph's limits: calls
// through function values or interfaces contribute no edges, and bodies in
// other packages are opaque, so a wrapper is seen one package deep plus
// the collectives known by name.
package collsym

import (
	"go/ast"
	"go/token"
	"go/types"

	"mdkmc/internal/analysis"
	"mdkmc/internal/analysis/callgraph"
)

// Analyzer is the collsym check.
var Analyzer = &analysis.Analyzer{
	Name: "collsym",
	Doc:  "flag mpi collectives reachable only under rank-dependent control flow",
	Run:  run,
}

const (
	mpiPath       = "mdkmc/internal/mpi"
	couplePath    = "mdkmc/internal/couple"
	telemetryPath = "mdkmc/internal/telemetry"
)

// commCollectives are the collective methods of mpi.Comm.
var commCollectives = map[string]bool{
	"Barrier":   true,
	"Allreduce": true,
	"Allgather": true,
	"Broadcast": true,
	"Bcast":     true,
}

// A collective describes a callee that enters a collective: how diagnostics
// name it, and the collective it reaches when it is not one itself. The
// zero value means "not a collective".
type collective struct {
	name string
	// method marks a collective method outside mpi (Preemptor.Poll, an
	// //mdvet:collective method), which rule 1 words as "called under".
	method bool
	via    *types.Func
}

type checker struct {
	*analysis.Pass
	memo map[*types.Func]collective
}

func run(p *analysis.Pass) error {
	c := &checker{Pass: p, memo: map[*types.Func]collective{}}
	for _, fn := range analysis.Funcs(p.Files) {
		c.checkFunc(fn)
	}
	return nil
}

// leaf classifies fn as a collective by itself.
func (c *checker) leaf(fn *types.Func) collective {
	pkg, recv, name, isMethod := analysis.MethodOn(fn)
	switch {
	case pkg == mpiPath && (recv == "Comm" && commCollectives[name] || recv == "Win" && name == "Fence"):
		return collective{name: recv + "." + name}
	case !isMethod && fn.Pkg() != nil && fn.Pkg().Path() == telemetryPath && fn.Name() == "Aggregate":
		return collective{name: "telemetry.Aggregate"}
	case pkg == couplePath && recv == "Preemptor" && name == "Poll",
		c.Dirs.IsCollective(c.Graph().DeclOf(fn)):
		return collective{name: fn.Name(), method: isMethod}
	}
	return collective{}
}

// isCollective reports whether the call enters a collective — the callee
// is one, or reaches one through same-package bodies — and how to name it.
func (c *checker) isCollective(call *ast.CallExpr) (collective, bool) {
	fn := callgraph.CalleeOf(c.TypesInfo, call)
	if fn == nil {
		return collective{}, false
	}
	coll, seen := c.memo[fn]
	if !seen {
		coll = c.leaf(fn)
		if coll.name == "" {
			if w := c.Graph().FindTransitive(fn, func(f *types.Func) bool { return c.leaf(f).name != "" }); w != nil {
				coll = collective{name: fn.Name(), via: w}
			}
		}
		c.memo[fn] = coll
	}
	return coll, coll.name != ""
}

// A funcScope is one function declaration or literal: early exits leave,
// and "later collectives" belong to, the innermost scope around them.
type funcScope struct {
	node    ast.Node // *ast.FuncDecl or *ast.FuncLit
	results *ast.FieldList
	// sites are the collective call sites of this scope in source order,
	// loops its for/range statements.
	sites []collSite
	loops []ast.Node
}

type collSite struct {
	pos  token.Pos
	name string
}

// scopesOf splits fn into its function scopes, outermost first.
func (c *checker) scopesOf(fn *ast.FuncDecl) []*funcScope {
	scopes := []*funcScope{{node: fn, results: fn.Type.Results}}
	var collect func(fs *funcScope, body *ast.BlockStmt)
	collect = func(fs *funcScope, body *ast.BlockStmt) {
		analysis.InspectFunc(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if coll, ok := c.isCollective(n); ok {
					fs.sites = append(fs.sites, collSite{pos: n.Pos(), name: coll.name})
				}
			case *ast.ForStmt, *ast.RangeStmt:
				fs.loops = append(fs.loops, n)
			}
			return true
		})
		// InspectFunc stops at nested literals; each is a scope of its own.
		ast.Inspect(body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				child := &funcScope{node: lit, results: lit.Type.Results}
				scopes = append(scopes, child)
				collect(child, lit.Body)
				return false
			}
			return true
		})
	}
	collect(scopes[0], fn.Body)
	return scopes
}

// within reports whether pos lies inside n.
func within(pos token.Pos, n ast.Node) bool { return n.Pos() <= pos && pos < n.End() }

// checkFunc applies both rules to one top-level function in a single
// rank-guarded walk. For break/continue the relevant collectives are those
// of the innermost enclosing loop: a rank that leaves (or shortcuts) a loop
// containing a collective diverges from peers still iterating, while
// breaking out of a collective-free loop toward a collective after it is
// symmetric and fine.
func (c *checker) checkFunc(fn *ast.FuncDecl) {
	scopes := c.scopesOf(fn)
	// Scopes and loops are listed outermost first: the last one around a
	// position is the innermost.
	scopeAt := func(pos token.Pos) (fs *funcScope) {
		for _, s := range scopes {
			if within(pos, s.node) {
				fs = s
			}
		}
		return fs
	}
	line := func(s collSite) int { return c.Fset.Position(s.pos).Line }
	analysis.WalkRankGuarded(fn.Body, func(n ast.Node, guarded bool) {
		if !guarded {
			return
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch coll, ok := c.isCollective(n); {
			case !ok:
			case coll.via != nil:
				c.Reportf(n.Pos(), "rank-guarded call to %s transitively enters collective %s: ranks skipping this call diverge from the collective schedule", coll.name, coll.via.Name())
			case coll.method:
				c.Reportf(n.Pos(), "collective %s is called under a rank-dependent condition: every rank must enter it or none (mismatched-collective deadlock)", coll.name)
			default:
				c.Reportf(n.Pos(), "collective %s is guarded by a rank-dependent condition: every rank must enter it or none (mismatched-collective deadlock)", coll.name)
			}
		case *ast.ReturnStmt:
			fs := scopeAt(n.Pos())
			if analysis.PropagatesError(c.TypesInfo, fs.results, n) {
				return
			}
			for _, s := range fs.sites {
				if s.pos > n.Pos() {
					c.Reportf(n.Pos(), "rank-dependent early return skips collective %s at line %d: ranks taking this path never enter it (non-error returns have no RunE abort safety net)", s.name, line(s))
					return
				}
			}
		case *ast.BranchStmt:
			if n.Tok != token.BREAK && n.Tok != token.CONTINUE {
				return
			}
			fs := scopeAt(n.Pos())
			var loop ast.Node
			for _, l := range fs.loops {
				if within(n.Pos(), l) {
					loop = l
				}
			}
			for _, s := range fs.sites {
				if loop != nil && within(s.pos, loop) {
					c.Reportf(n.Pos(), "rank-dependent %s in a loop containing collective %s (line %d): ranks taking this path diverge from the collective schedule", n.Tok, s.name, line(s))
					return
				}
			}
		}
	})
}
