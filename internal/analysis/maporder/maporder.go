// Package maporder implements the mdvet analyzer that enforces the
// bit-identity contract against Go's randomized map iteration order
// (DESIGN.md §7): a `range` over a map may not feed order-sensitive state.
// Flagged bodies:
//
//   - floating-point accumulation (`sum += v`): float addition is not
//     associative, so the result depends on the iteration order and the
//     trajectory silently stops being bit-identical across runs;
//   - appending to a slice that is not sorted afterwards in the same
//     function: the slice's element order is random, and such slices feed
//     reductions, comm packing, and checkpoints (the sanctioned idiom —
//     collect keys, then sort.Ints/sort.Slice — is recognized and clean);
//   - packing or sending data (methods named Send, Put, Write, Encode):
//     wire and checkpoint bytes ordered by map iteration differ between
//     runs and between ranks.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"mdkmc/internal/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag map-iteration bodies that feed order-sensitive state (float sums, unsorted appends, message packing)",
	Run:  run,
}

// packMethods are method names that serialize or transmit state.
var packMethods = map[string]bool{
	"Send":   true,
	"Put":    true,
	"Write":  true,
	"Encode": true,
}

// sortFuncs are the sort/slices functions that repair append order.
var sortFuncs = map[string]bool{
	"Ints": true, "Float64s": true, "Strings": true,
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	"SortFunc": true, "SortStableFunc": true,
}

func run(p *analysis.Pass) error {
	for _, fn := range analysis.Funcs(p.Files) {
		checkFunc(p, fn.Body)
	}
	return nil
}

// checkFunc scans one function body (recursing into literals with their
// own bodies as the sort-search horizon).
func checkFunc(p *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			checkFunc(p, lit.Body)
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(p, rng, body)
		return true
	})
}

// checkMapRange applies the three body rules to one map-range statement.
func checkMapRange(p *analysis.Pass, rng *ast.RangeStmt, funcBody *ast.BlockStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if isFloat(p.TypesInfo.TypeOf(lhs)) {
						p.Reportf(n.Pos(), "floating-point accumulation into %s inside a map range: float addition is not associative, so the result depends on the random iteration order; iterate sorted keys instead",
							types.ExprString(lhs))
					}
				}
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					if isAppend(p, rhs) && !declaredWithin(p, n.Lhs[i], rng) && !sortedAfter(p, funcBody, rng, n.Lhs[i]) {
						p.Reportf(n.Pos(), "append to %s inside a map range without a later sort in this function: the element order is random and breaks bit-identical reductions/serialization; sort it or iterate sorted keys",
							types.ExprString(n.Lhs[i]))
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && packMethods[sel.Sel.Name] && isMethodCall(p, sel) {
				p.Reportf(n.Pos(), "%s called inside a map range: bytes are packed/sent in random iteration order, which differs between runs and ranks; iterate sorted keys instead",
					sel.Sel.Name)
			}
		}
		return true
	})
}

// declaredWithin reports whether the root variable of target is declared
// inside the range statement itself. A slice local to one iteration (e.g.
// a per-key buffer filled by a deterministic inner loop) cannot observe
// cross-iteration map order, so it is exempt from the append rule.
func declaredWithin(p *analysis.Pass, target ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch e := target.(type) {
		case *ast.SelectorExpr:
			target = e.X
		case *ast.IndexExpr:
			target = e.X
		case *ast.StarExpr:
			target = e.X
		case *ast.ParenExpr:
			target = e.X
		case *ast.Ident:
			obj := p.TypesInfo.Uses[e]
			if obj == nil {
				obj = p.TypesInfo.Defs[e]
			}
			v, ok := obj.(*types.Var)
			return ok && v.Pos() >= rng.Pos() && v.Pos() < rng.End()
		default:
			return false
		}
	}
}

// isFloat reports whether t is a floating-point (or complex) type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// isAppend reports whether e is a call to the append builtin.
func isAppend(p *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	return ok && analysis.IsBuiltinCall(p.TypesInfo, call, "append")
}

// isMethodCall reports whether the selector resolves to a method (not a
// package-qualified function), so `fmt.Print`-style calls named like pack
// methods do not trip the rule.
func isMethodCall(p *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := p.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.MethodVal
}

// sortedAfter reports whether target is passed to a sort/slices sorting
// function somewhere after the range statement begins within the enclosing
// function body — the collect-then-sort idiom.
func sortedAfter(p *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, target ast.Expr) bool {
	want := types.ExprString(target)
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.Pos() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sortFuncs[sel.Sel.Name] {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, okp := p.TypesInfo.Uses[pkg].(*types.PkgName); !okp ||
			(pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
			return true
		}
		if len(call.Args) > 0 && types.ExprString(call.Args[0]) == want {
			found = true
		}
		return true
	})
	return found
}
