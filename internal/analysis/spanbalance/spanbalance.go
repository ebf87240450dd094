// Package spanbalance implements the mdvet analyzer that keeps telemetry
// spans balanced: every telemetry.Timer.Begin() result must reach .End()
// on every control-flow path. The telemetry layer's zero-perturbation
// guarantee (DESIGN.md §11) assumes spans are pure brackets — a dropped,
// shadowed, or leaked span skews the phase aggregation that the scaling
// figures and the load balancer both read, silently and only at scale.
//
// The analysis is per function scope (function literals are separate
// scopes) and per span variable, with a small abstract interpretation
// over the statement structure:
//
//   - a Begin() whose result is discarded (expression statement or
//     assigned to _) is reported at the call;
//   - re-assigning a live span variable (a second Begin before End)
//     shadows the first span and is reported at the second assignment;
//   - a span still live at a return, or at the end of a loop body it was
//     begun in, or at the end of the function, is reported at its Begin —
//     unless the return propagates a non-nil error (the rank-abort path:
//     RunE tears the run down and the telemetry report is abandoned);
//   - `defer sp.End()` (directly or inside a deferred closure) balances
//     every path; only re-Begin shadowing is still checked;
//   - branches whose arms disagree about liveness at the join are
//     reported once as path-dependent.
//
// Escapes end the analysis conservatively without a report: a span passed
// to a call, stored into a structure, or captured by a non-End closure is
// assumed balanced elsewhere. An End inside a nested closure counts where
// the closure is written. Functions containing goto are skipped. These
// are the documented soundness limits (DESIGN.md §12).
package spanbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"mdkmc/internal/analysis"
	"mdkmc/internal/analysis/callgraph"
)

// Analyzer is the spanbalance check.
var Analyzer = &analysis.Analyzer{
	Name: "spanbalance",
	Doc:  "every telemetry.Timer.Begin() must reach .End() on all control-flow paths",
	Run:  run,
}

// isBeginCall reports whether call is telemetry (*Timer).Begin().
func isBeginCall(p *analysis.Pass, call *ast.CallExpr) bool {
	fn := callgraph.CalleeOf(p.TypesInfo, call)
	return fn != nil && analysis.IsMethod(fn, "mdkmc/internal/telemetry", "Timer", "Begin")
}

// scope is one function body (a declaration's or a literal's) analyzed
// independently, with what one classification pass learns about it.
type scope struct {
	p       *analysis.Pass
	body    *ast.BlockStmt
	results *ast.FieldList
	parents map[ast.Node]ast.Node
	// begins lists, per span variable and in source order, the Begin calls
	// whose result lands in it.
	begins map[*types.Var][]*ast.CallExpr
}

func run(p *analysis.Pass) error {
	for _, fn := range analysis.Funcs(p.Files) {
		checkScope(p, fn.Body, fn.Type.Results)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkScope(p, lit.Body, lit.Type.Results)
			}
			return true
		})
	}
	return nil
}

// checkScope classifies every Begin call site of the scope in one pass —
// dropped, landing in a span variable, or balancing inline/escaping — then
// runs the liveness analysis per variable. Scopes containing goto are
// skipped.
func checkScope(p *analysis.Pass, body *ast.BlockStmt, results *ast.FieldList) {
	sc := &scope{p: p, body: body, results: results, parents: analysis.ParentMap(body), begins: map[*types.Var][]*ast.CallExpr{}}
	var tracked []*types.Var
	var dropped []*ast.CallExpr
	hasGoto := false
	analysis.InspectFunc(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BranchStmt:
			hasGoto = hasGoto || n.Tok == token.GOTO
		case *ast.CallExpr:
			if !isBeginCall(p, n) {
				break
			}
			switch v, drop := sc.beginTarget(n); {
			case drop:
				dropped = append(dropped, n)
			case v != nil:
				if sc.begins[v] == nil {
					tracked = append(tracked, v)
				}
				sc.begins[v] = append(sc.begins[v], n)
			}
		}
		return true
	})
	if hasGoto {
		return
	}
	for _, call := range dropped {
		p.Reportf(call.Pos(), "result of Timer.Begin() is dropped: the span can never End and the phase measurement is lost")
	}
	for _, v := range tracked {
		sc.checkVar(v)
	}
}

// beginTarget classifies one Begin call site: the variable its result is
// assigned to, or dropped when it is discarded. Neither means the span
// balances inline (an immediate .End()) or escapes into an expression
// (argument, return value, composite literal, selector/index target).
func (sc *scope) beginTarget(call *ast.CallExpr) (v *types.Var, dropped bool) {
	var target ast.Expr
	switch par := sc.parents[call].(type) {
	case *ast.ExprStmt:
		return nil, true
	case *ast.AssignStmt:
		if i := slices.Index(par.Rhs, ast.Expr(call)); i >= 0 && len(par.Lhs) == len(par.Rhs) {
			target = par.Lhs[i]
		}
	case *ast.ValueSpec:
		if i := slices.Index(par.Values, ast.Expr(call)); i >= 0 && len(par.Names) == len(par.Values) {
			target = par.Names[i]
		}
	}
	id, ok := target.(*ast.Ident)
	if !ok {
		return nil, false
	}
	return varOf(sc.p, id), id.Name == "_"
}

func varOf(p *analysis.Pass, id *ast.Ident) *types.Var {
	if v, ok := p.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := p.TypesInfo.Uses[id].(*types.Var)
	return v
}

// checkVar runs the liveness analysis for one span variable.
func (sc *scope) checkVar(v *types.Var) {
	if sc.escapes(v) {
		return
	}
	begins := sc.begins[v]
	if sc.hasDeferredEnd(v) {
		// Every path Ends via the defer; only re-Begin shadowing can leak.
		for _, call := range begins[1:] {
			sc.p.Reportf(call.Pos(), "span %s is re-begun while `defer %s.End()` is pending: the deferred End closes the new span and the first one leaks", v.Name(), v.Name())
		}
		return
	}
	w := &walker{sc: sc, v: v, beginPos: begins[0].Pos()}
	live, _ := w.stmts(sc.body.List, false)
	if live && !w.poisoned {
		sc.p.Reportf(w.beginPos, "span %s begun here does not reach .End() before the function returns", v.Name())
	}
}

// escapes reports whether v is used outside the allowed span idioms
// (Begin assignment, .End() receiver — also inside closures — or blank
// reads the analysis understands).
func (sc *scope) escapes(v *types.Var) bool {
	esc := false
	ast.Inspect(sc.body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if esc || !ok || varOf(sc.p, id) != v {
			return !esc
		}
		switch par := sc.parents[id].(type) {
		case *ast.AssignStmt:
			// LHS of an assignment (definition or overwrite).
			esc = !slices.Contains(par.Lhs, ast.Expr(id))
		case *ast.ValueSpec:
			esc = !slices.Contains(par.Names, id) // `var x = sp`: the span aliases away
		case *ast.SelectorExpr:
			// Only sp.End() is an allowed read.
			call, ok := sc.parents[par].(*ast.CallExpr)
			esc = !(ok && call.Fun == par && par.X == id && par.Sel.Name == "End")
		default:
			esc = true
		}
		return !esc
	})
	return esc
}

// hasDeferredEnd reports whether the scope defers v.End(), directly or in
// a deferred closure.
func (sc *scope) hasDeferredEnd(v *types.Var) bool {
	found := false
	analysis.InspectFunc(sc.body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && sc.endsVar(d.Call, v) {
			found = true
		}
		return !found
	})
	return found
}

// endsVar reports whether the node contains a v.End() call (descending
// into closures: an End written inside a closure counts where it is
// written — a documented approximation).
func (sc *scope) endsVar(root ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
				if id, ok := sel.X.(*ast.Ident); ok && varOf(sc.p, id) == v {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// walker is the per-variable abstract interpreter.
type walker struct {
	sc       *scope
	v        *types.Var
	beginPos token.Pos
	poisoned bool // a path-dependence report was already issued
}

func (w *walker) reportOnce(pos token.Pos, format string, args ...interface{}) {
	if w.poisoned {
		return
	}
	w.poisoned = true
	w.sc.p.Reportf(pos, format, args...)
}

// stmts walks a statement list; returns (live at fall-through,
// terminated: every path returned/branched away).
func (w *walker) stmts(list []ast.Stmt, live bool) (bool, bool) {
	for _, s := range list {
		var term bool
		live, term = w.stmt(s, live)
		if term {
			return live, true
		}
	}
	return live, false
}

func (w *walker) stmt(s ast.Stmt, live bool) (bool, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, live)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, live)
	case *ast.IfStmt:
		if s.Init != nil {
			live, _ = w.stmt(s.Init, live)
		}
		thenLive, thenTerm := w.stmt(s.Body, live)
		elseLive, elseTerm := live, false
		if s.Else != nil {
			elseLive, elseTerm = w.stmt(s.Else, live)
		}
		return w.merge([]bool{thenLive, elseLive}, []bool{thenTerm, elseTerm})
	case *ast.SwitchStmt:
		return w.clauses(s.Init, s.Body, live, false)
	case *ast.TypeSwitchStmt:
		return w.clauses(s.Init, s.Body, live, false)
	case *ast.SelectStmt:
		// A select blocks until one of its clauses runs.
		return w.clauses(nil, s.Body, live, true)
	case *ast.ForStmt:
		return w.loop(s.Init, s.Body, live)
	case *ast.RangeStmt:
		return w.loop(nil, s.Body, live)
	case *ast.ReturnStmt:
		if live && !analysis.PropagatesError(w.sc.p.TypesInfo, w.sc.results, s) {
			w.reportOnce(w.beginPos, "span %s begun here is still live at the return: .End() is skipped on this path (error-propagating returns are exempt — the run aborts)", w.v.Name())
		}
		return false, true
	case *ast.BranchStmt:
		// break/continue leave the current block; treating them as
		// terminating keeps the loop-body join simple (documented
		// approximation).
		return live, true
	}
	// A straight-line statement. panic is an abort path (the telemetry
	// report is abandoned with the run); otherwise its effect on v is a
	// fresh Begin, an End, or an overwrite.
	if es, ok := s.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok && analysis.IsBuiltinCall(w.sc.p.TypesInfo, call, "panic") {
			return false, true
		}
	}
	for _, call := range w.sc.begins[w.v] {
		if s.Pos() <= call.Pos() && call.End() <= s.End() {
			if live {
				w.reportOnce(call.Pos(), "span %s is re-begun before .End(): the previous span leaks", w.v.Name())
			}
			return true, false
		}
	}
	if w.sc.endsVar(s, w.v) {
		return false, false
	}
	if w.overwrites(s) {
		if live {
			w.reportOnce(s.Pos(), "span %s is overwritten while live: the running span leaks", w.v.Name())
		}
		return false, false
	}
	return live, false
}

// loop walks a for/range body: the span's liveness at the bottom must
// match the top, or iterations disagree.
func (w *walker) loop(init ast.Stmt, body *ast.BlockStmt, live bool) (bool, bool) {
	if init != nil {
		live, _ = w.stmt(init, live)
	}
	bodyLive, bodyTerm := w.stmts(body.List, live)
	if !bodyTerm && bodyLive != live {
		w.reportOnce(w.beginPos, "span %s does not End by the bottom of the loop body: the next iteration re-begins over a live span (or Ends a dead one)", w.v.Name())
	}
	return live, false
}

// clauses merges switch/type-switch/select bodies; exhaustive says some
// clause always runs even without a default.
func (w *walker) clauses(init ast.Stmt, body *ast.BlockStmt, live, exhaustive bool) (bool, bool) {
	if init != nil {
		live, _ = w.stmt(init, live)
	}
	var lives, terms []bool
	for _, c := range body.List {
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			exhaustive = exhaustive || cc.List == nil
			list = cc.Body
		case *ast.CommClause:
			list = cc.Body
		}
		l, t := w.stmts(list, live)
		lives = append(lives, l)
		terms = append(terms, t)
	}
	if !exhaustive {
		// The zero-clause path falls through unchanged.
		lives = append(lives, live)
		terms = append(terms, false)
	}
	return w.merge(lives, terms)
}

// merge joins branch outcomes: surviving paths must agree on liveness.
func (w *walker) merge(lives []bool, terms []bool) (bool, bool) {
	first := true
	var out bool
	for i := range lives {
		if terms[i] {
			continue
		}
		if first {
			out, first = lives[i], false
			continue
		}
		if lives[i] != out {
			w.reportOnce(w.beginPos, "span %s Ends on some paths through this branch but not others: the measurement is path-dependent", w.v.Name())
			return false, false
		}
	}
	if first {
		return false, true // every branch terminated
	}
	return out, false
}

// overwrites reports whether the statement assigns a non-Begin value to v.
func (w *walker) overwrites(s ast.Stmt) bool {
	found := false
	analysis.InspectFunc(s, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok && varOf(w.sc.p, id) == w.v {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
