package analysis

import (
	"go/ast"
	"strings"
)

// RankDependent reports whether the expression reads the mpi rank: a call
// to a method named Rank, or any identifier whose name contains "rank".
// A branch condition matching it makes everything under the branch
// rank-asymmetric, which is exactly what the collective-symmetry contract
// forbids around collectives.
func RankDependent(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Rank" {
				found = true
			}
		case *ast.Ident:
			if strings.Contains(strings.ToLower(n.Name), "rank") {
				found = true
			}
		}
		return !found
	})
	return found
}

// WalkRankGuarded visits every node below root in source order together
// with its rank-guard state: whether only some ranks execute it. The state
// turns on under an if whose condition is RankDependent (both arms — the
// else-branch is equally asymmetric), under a switch on a rank-dependent
// tag or in a clause with a rank-dependent case expression, and in the
// body of a for loop with a rank-dependent condition; it never turns off
// below that point. A function literal inherits the state of the place it
// is written: its body runs when called, not where it appears, but the
// inline-closure case is the common one.
func WalkRankGuarded(root ast.Node, visit func(n ast.Node, guarded bool)) {
	var walk func(guarded bool, nodes ...ast.Node)
	walk = func(guarded bool, nodes ...ast.Node) {
		for _, root := range nodes {
			ast.Inspect(root, func(n ast.Node) bool {
				if n == nil {
					return false
				}
				visit(n, guarded)
				switch n := n.(type) {
				case *ast.IfStmt:
					walk(guarded, n.Init, n.Cond)
					walk(guarded || RankDependent(n.Cond), n.Body, n.Else)
				case *ast.SwitchStmt:
					walk(guarded, n.Init, n.Tag)
					g := guarded || n.Tag != nil && RankDependent(n.Tag)
					for _, c := range n.Body.List {
						cc := c.(*ast.CaseClause)
						cg := g
						for _, e := range cc.List {
							walk(guarded, e)
							cg = cg || RankDependent(e)
						}
						for _, s := range cc.Body {
							walk(cg, s)
						}
					}
				case *ast.ForStmt:
					walk(guarded, n.Init, n.Cond)
					walk(guarded || n.Cond != nil && RankDependent(n.Cond), n.Post, n.Body)
				default:
					return true
				}
				return false
			})
		}
	}
	walk(false, root)
}
