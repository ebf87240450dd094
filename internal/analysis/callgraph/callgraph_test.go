package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

const src = `package p

func leaf() {}

func viaClosure() {
	f := func() { leaf() }
	f()
}

func mid() { leaf() }

func top() { mid() }

type T struct{}

func (t *T) M() { top() }

func indirect(f func()) { f() }

func external() { println("builtin only") }
`

func load(t *testing.T) (*Graph, *types.Info, map[string]*types.Func) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	g := New([]*ast.File{f}, info)
	byName := map[string]*types.Func{}
	for fn := range g.decls {
		byName[fn.Name()] = fn
	}
	return g, info, byName
}

func TestEdgesAndDecls(t *testing.T) {
	g, _, fns := load(t)
	for _, name := range []string{"leaf", "viaClosure", "mid", "top", "M", "indirect", "external"} {
		if fns[name] == nil {
			t.Fatalf("function %s not summarized", name)
		}
		if g.DeclOf(fns[name]) == nil {
			t.Errorf("DeclOf(%s) = nil", name)
		}
	}
	var names []string
	for _, e := range g.calls[fns["viaClosure"]] {
		names = append(names, e.Callee.Name())
	}
	// The closure body is flattened into viaClosure; the call through the
	// variable f does not resolve.
	if len(names) != 1 || names[0] != "leaf" {
		t.Errorf("calls[viaClosure] = %v, want [leaf]", names)
	}
	if got := g.calls[fns["indirect"]]; len(got) != 0 {
		t.Errorf("calls[indirect] resolved %d edges through a function value, want 0", len(got))
	}
}

func TestFindTransitive(t *testing.T) {
	g, _, fns := load(t)
	isLeaf := func(fn *types.Func) bool { return fn.Name() == "leaf" }

	if w := g.FindTransitive(fns["M"], isLeaf); w == nil || w.Name() != "leaf" {
		t.Errorf("FindTransitive(M, leaf) = %v, want leaf (via top, mid)", w)
	}
	if w := g.FindTransitive(fns["external"], isLeaf); w != nil {
		t.Errorf("FindTransitive(external, leaf) = %v, want nil", w)
	}
	// pred is not applied to the root itself.
	if w := g.FindTransitive(fns["leaf"], isLeaf); w != nil {
		t.Errorf("FindTransitive(leaf, leaf) = %v, want nil (pred skips the root)", w)
	}
}

func TestReachable(t *testing.T) {
	g, _, fns := load(t)
	r := g.Reachable(fns["M"])
	for _, name := range []string{"M", "top", "mid", "leaf"} {
		if !r[fns[name]] {
			t.Errorf("Reachable(M) misses %s", name)
		}
	}
	if r[fns["viaClosure"]] || r[fns["external"]] {
		t.Errorf("Reachable(M) includes unreachable functions: %v", r)
	}
}

func TestCalleeOfUnresolvable(t *testing.T) {
	g, info, fns := load(t)
	_ = g
	decl := g.DeclOf(fns["indirect"])
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			found = true
			if callee := CalleeOf(info, call); callee != nil {
				t.Errorf("CalleeOf resolved a call through a function value to %v", callee)
			}
		}
		return true
	})
	if !found {
		t.Fatal("no call found in indirect")
	}
}
