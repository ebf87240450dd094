// Package callgraph builds the lightweight per-package call-graph summary
// shared by the interprocedural mdvet analyzers (collsym, preemptpoll),
// which reach it through analysis.Package.Graph.
//
// The graph records, for every function declared with a body in one
// type-checked package, the statically resolvable calls its body makes.
// Resolution is deliberately simple — and its limits define the analyzers'
// soundness boundary (DESIGN.md §12):
//
//   - only direct calls through an identifier or selector resolve
//     (`f(x)`, `recv.M(x)`, `pkg.F(x)`); calls through function values,
//     interface methods, or method values do not resolve and simply
//     contribute no edge;
//   - function-literal bodies are flattened into the enclosing
//     declaration: a call inside a closure counts as a call of the
//     declaring function whether or not the closure ever runs;
//   - edges cross package boundaries as leaves only — the callee's own
//     body is visible solely for functions declared in the analyzed
//     package, so transitive queries stop at the package border.
//
// The result is neither sound nor complete in the abstract-interpretation
// sense, but it is deterministic, costs one AST walk per package, and is
// exactly strong enough for the contracts mdvet checks: "does this loop
// body reach a preemption poll", "does this helper transitively enter a
// collective".
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
)

// An Edge is one resolved static call site.
type Edge struct {
	Callee *types.Func
	Pos    token.Pos
}

// A Graph is the call summary of one package.
type Graph struct {
	decls map[*types.Func]*ast.FuncDecl
	calls map[*types.Func][]Edge
}

// New summarizes the package's files. info must carry Defs and Uses.
func New(files []*ast.File, info *types.Info) *Graph {
	g := &Graph{
		decls: map[*types.Func]*ast.FuncDecl{},
		calls: map[*types.Func][]Edge{},
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[obj] = fn
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := CalleeOf(info, call); callee != nil {
					g.calls[obj] = append(g.calls[obj], Edge{Callee: callee, Pos: call.Pos()})
				}
				return true
			})
		}
	}
	return g
}

// CalleeOf resolves the static callee of a call expression, or nil for
// calls the summary cannot see through (function values, interface
// methods, conversions, builtins).
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// DeclOf returns the declaration of a function declared with a body in
// this package, or nil (imported, builtin, or synthetic objects).
func (g *Graph) DeclOf(fn *types.Func) *ast.FuncDecl {
	return g.decls[fn]
}

// FindTransitive walks the call graph from `from`, descending into bodies
// declared in this package, and returns the first callee (in source
// order, depth-first) satisfying pred — the witness for a diagnostic —
// or nil. pred is tested on every callee, including cross-package leaves,
// but not on `from` itself.
func (g *Graph) FindTransitive(from *types.Func, pred func(*types.Func) bool) *types.Func {
	seen := map[*types.Func]bool{}
	var dfs func(fn *types.Func) *types.Func
	dfs = func(fn *types.Func) *types.Func {
		if seen[fn] {
			return nil
		}
		seen[fn] = true
		for _, e := range g.calls[fn] {
			if pred(e.Callee) {
				return e.Callee
			}
			if g.decls[e.Callee] != nil {
				if w := dfs(e.Callee); w != nil {
					return w
				}
			}
		}
		return nil
	}
	return dfs(from)
}
