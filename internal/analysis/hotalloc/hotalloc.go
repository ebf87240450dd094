// Package hotalloc implements the mdvet analyzer that preserves the
// zero-allocation promise of functions marked //mdvet:hot (the MD
// force/density kernels and the KMC sector inner loops, DESIGN.md §9,
// §11). Inside a hot function it flags:
//
//   - defer statements: per-call bookkeeping on the hot path (and a
//     telemetry span ended by defer keeps the span alive across the whole
//     call instead of the measured region);
//   - goroutine launches: spawning inside an inner loop allocates and
//     schedules per iteration — worker pools belong outside;
//   - escaping closures: a capturing func literal that is returned,
//     stored into a field/map/slice/channel, or placed in a composite
//     literal is heap-allocated together with its captured variables.
//     Local helper closures (`f := func(){...}`) and literals passed
//     directly as call arguments stay on the stack under the compiler's
//     escape analysis and are allowed — that is the codebase's
//     established kernel idiom;
//   - telemetry.Span values that escape: taking a span's address or
//     passing one as an interface{} (e.g. to fmt) boxes it on the heap.
//
// The analyzer is a lexical approximation of escape analysis, tuned to the
// patterns this repo's hot paths actually use; `go build -gcflags=-m`
// remains the ground truth when in doubt.
package hotalloc

import (
	"go/ast"
	"go/types"

	"mdkmc/internal/analysis"
)

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flag heap-escaping spans/closures and defers inside //mdvet:hot functions",
	Run:  run,
}

const telemetryPath = "mdkmc/internal/telemetry"

func run(p *analysis.Pass) error {
	for _, fn := range analysis.Funcs(p.Files) {
		if p.Dirs.IsHot(fn) {
			checkHot(p, fn)
		}
	}
	return nil
}

func checkHot(p *analysis.Pass, fn *ast.FuncDecl) {
	// parent links for the escape-context checks.
	parent := analysis.ParentMap(fn)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			p.Reportf(n.Pos(), "defer in //mdvet:hot function %s: per-call defer bookkeeping on the hot path (and a deferred Span.End measures the whole call, not the region); end/clean up explicitly", fn.Name.Name)
			return false // the deferred call/literal is covered by this report
		case *ast.GoStmt:
			p.Reportf(n.Pos(), "goroutine launch in //mdvet:hot function %s: allocates and schedules per call; hoist worker pools out of the hot path", fn.Name.Name)
			return false
		case *ast.FuncLit:
			if ctx := escapeContext(parent, n); ctx != "" && captures(p, fn, n) {
				p.Reportf(n.Pos(), "capturing closure %s in //mdvet:hot function %s: the closure and its captured variables are heap-allocated per call; hoist it or pass state explicitly", ctx, fn.Name.Name)
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" && isSpan(p.TypesInfo.TypeOf(n.X)) {
				p.Reportf(n.Pos(), "address of telemetry.Span in //mdvet:hot function %s: forces the span (a zero-alloc value type) onto the heap", fn.Name.Name)
			}
		case *ast.CallExpr:
			reportSpanToInterface(p, fn, n)
		}
		return true
	})
}

// escapeContext classifies where a func literal appears; non-empty means
// the literal escapes to the heap.
func escapeContext(parent map[ast.Node]ast.Node, lit *ast.FuncLit) string {
	switch par := parent[lit].(type) {
	case *ast.ReturnStmt:
		return "returned from the function"
	case *ast.CompositeLit:
		return "stored in a composite literal"
	case *ast.KeyValueExpr:
		return "stored in a composite literal"
	case *ast.SendStmt:
		return "sent on a channel"
	case *ast.IndexExpr:
		return "stored by index"
	case *ast.AssignStmt:
		// `f := func(){...}` binding to a plain local is the allowed helper
		// idiom; storing into a field, map, slice, or dereference escapes.
		for i, rhs := range par.Rhs {
			if rhs != lit || i >= len(par.Lhs) {
				continue
			}
			if _, isIdent := par.Lhs[i].(*ast.Ident); !isIdent {
				return "stored into " + types.ExprString(par.Lhs[i])
			}
		}
	}
	return ""
}

// captures reports whether the literal references variables declared in
// the enclosing function outside the literal itself.
func captures(p *analysis.Pass, fn *ast.FuncDecl, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		obj := p.TypesInfo.Uses[id]
		if v, okv := obj.(*types.Var); okv && !v.IsField() {
			if pos := v.Pos(); pos >= fn.Pos() && pos < lit.Pos() {
				found = true
			}
		}
		return !found
	})
	return found
}

// isSpan reports whether t is telemetry.Span.
func isSpan(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Span" && obj.Pkg() != nil && obj.Pkg().Path() == telemetryPath
}

// reportSpanToInterface flags Span arguments bound to interface-typed
// parameters (boxing).
func reportSpanToInterface(p *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	sig, ok := p.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if !isSpan(p.TypesInfo.TypeOf(arg)) {
			continue
		}
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if sl, oks := last.(*types.Slice); oks {
				param = sl.Elem()
			}
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		}
		if param == nil {
			continue
		}
		if _, isIface := param.Underlying().(*types.Interface); isIface {
			p.Reportf(arg.Pos(), "telemetry.Span passed as %s in //mdvet:hot function %s: boxing the span allocates; pass the timer or end the span first", param.String(), fn.Name.Name)
		}
	}
}
