package analysis

import (
	"go/ast"
	"go/types"
)

// Funcs returns the function declarations with bodies in the files, in
// source order — the unit every analyzer iterates.
func Funcs(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				out = append(out, fn)
			}
		}
	}
	return out
}

// RecvNamed returns the named type fn is a method of (through a pointer
// receiver too), or nil for plain functions and interface methods.
func RecvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// MethodOn decomposes fn into (package path, receiver type name, method
// name); ok is false for non-methods.
func MethodOn(fn *types.Func) (pkg, recv, name string, ok bool) {
	named := RecvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return "", "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), fn.Name(), true
}

// IsMethod reports whether fn is the method name of type recv declared in
// the package with import path pkg.
func IsMethod(fn *types.Func, pkg, recv, name string) bool {
	p, r, n, ok := MethodOn(fn)
	return ok && p == pkg && r == recv && n == name
}

// IsBuiltinCall reports whether call invokes the builtin name (panic,
// append, ...) and not a declaration shadowing it.
func IsBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// PropagatesError reports whether ret, in a function with the given
// results, propagates a (presumed non-nil) error: the last result is an
// error and the value returned for it is not the nil literal (a naked
// return is presumed to carry the named error). Such a return is the
// rank-abort path — mpi.RunE turns it into a world abort that wakes every
// rank blocked in a collective and abandons the telemetry report — so the
// contracts that police early exits (collsym, spanbalance) exempt it.
func PropagatesError(info *types.Info, results *ast.FieldList, ret *ast.ReturnStmt) bool {
	if results == nil || len(results.List) == 0 {
		return false
	}
	t := info.TypeOf(results.List[len(results.List)-1].Type)
	if t == nil || !types.Identical(t, types.Universe.Lookup("error").Type()) {
		return false
	}
	if len(ret.Results) == 0 {
		return true
	}
	id, ok := ret.Results[len(ret.Results)-1].(*ast.Ident)
	return !ok || id.Name != "nil"
}

// InspectFunc is ast.Inspect confined to one function scope: it does not
// descend into function literals nested below root (root itself may be
// one).
func InspectFunc(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		return fn(n)
	})
}

// ParentMap returns the child→parent links of the tree below root.
func ParentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
