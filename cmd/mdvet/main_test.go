package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mdkmc/internal/analysis"
)

// The module's non-test packages, type-checked once for every test here.
var (
	moduleOnce sync.Once
	modulePkgs []*analysis.Package
	moduleErr  error
)

func loadModule(t *testing.T) []*analysis.Package {
	t.Helper()
	moduleOnce.Do(func() { modulePkgs, moduleErr = analysis.Load("mdkmc/...") })
	if moduleErr != nil {
		t.Fatalf("loading module packages: %v", moduleErr)
	}
	if len(modulePkgs) == 0 {
		t.Fatal("loader returned no packages")
	}
	return modulePkgs
}

// TestTreeIsClean runs the full mdvet suite over every package of the
// module: the contracts the analyzers encode must hold in the tree itself,
// so any finding here is a regression (or needs a reasoned
// //mdvet:ignore).
func TestTreeIsClean(t *testing.T) {
	diags, stats, err := analysis.CheckStats(loadModule(t), analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	// The reasoned exemptions in force are pinned, not just printed by
	// `make lint`: a new //mdvet:ignore is a decision that has to show up
	// here (and in DESIGN.md §12).
	wantSuppressed := map[string]int{"preemptpoll": 1, "errpanic": 15}
	for _, s := range stats {
		if s.Suppressed != wantSuppressed[s.Analyzer] {
			t.Errorf("%s: %d suppressed findings, want %d", s.Analyzer, s.Suppressed, wantSuppressed[s.Analyzer])
		}
	}
}

// testSeams are the declarations under internal/ that no program uses but
// tests do, kept as test seams with the reason why. Like wantSuppressed the
// list is pinned: an entry whose declaration is gone, that a program now
// uses, or that no test names any more fails.
var testSeams = map[string]string{
	"couple.Preemptor.C":          "serve's stub runner selects on the preemption request",
	"telemetry.Report.CounterSum": "kmc and couple tests sum a counter across ranks",
	"md.AlloyDominantResident":    "the named zero value of AlloyTableStrategy, set by the root ablation benchmarks",
	"telemetry.Set.Job":           "telemetry's tests check the job label a set carries",
	"telemetry.Set.Ranks":         "telemetry's tests check the per-rank registry count",
	"telemetry.Set.MetricsAddr":   "telemetry's tests scrape the live endpoint on its bound port",
	"telemetry.Counter.Value":     "telemetry's tests read a counter, nil receiver included",
	"telemetry.Gauge.Value":       "telemetry's tests read a gauge, nil receiver included",
}

// TestEveryDeclarationIsReached holds internal/ to code a program runs:
// every package-level func, method, type, const and var in a non-test file
// under internal/ must be used from a non-test file of the module (a
// binary, an example, the root facade, the job server or bench/). Nothing
// outside the module can import internal/, so a declaration only tests
// reach is test code and belongs in a _test.go file. Exempt are methods
// that satisfy an interface, the analysistest support package, and the
// pinned testSeams.
func TestEveryDeclarationIsReached(t *testing.T) {
	pkgs := loadModule(t)
	type decl struct {
		key  string
		node ast.Node
	}
	decls := map[types.Object]decl{}
	var methods []*types.Func
	for _, pkg := range pkgs {
		rel, ok := strings.CutPrefix(pkg.Pkg.Path(), "mdkmc/internal/")
		if !ok || rel == "analysis/analysistest" {
			continue
		}
		add := func(id *ast.Ident, node ast.Node, key string) {
			if obj := pkg.TypesInfo.Defs[id]; obj != nil && id.Name != "_" && id.Name != "init" {
				decls[obj] = decl{rel + "." + key, node}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, d, d.Name.Name)
						continue
					}
					fn := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					methods = append(methods, fn)
					add(d.Name, d, recvNamed(fn).Obj().Name()+"."+d.Name.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s, s.Name.Name)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, s, id.Name)
							}
						}
					}
				}
			}
		}
	}

	// A use inside the declaration itself (recursion, a self-referencing
	// type) does not count.
	used := map[types.Object]bool{}
	for _, pkg := range pkgs {
		for id, obj := range pkg.TypesInfo.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if d, ok := decls[obj]; ok && (id.Pos() < d.node.Pos() || id.Pos() >= d.node.End()) {
				used[obj] = true
			}
		}
	}
	ifaces := interfaces(pkgs)
	for _, fn := range methods {
		if satisfiesInterface(fn, ifaces) {
			used[fn] = true
		}
	}

	seamUsed := map[string]bool{}
	for obj, d := range decls {
		if _, seam := testSeams[d.key]; seam {
			seamUsed[d.key] = used[obj]
		} else if !used[obj] {
			pos := pkgs[0].Fset.Position(obj.Pos())
			t.Errorf("%s:%d: %s is used by no program: move it into a _test.go file or delete it",
				pos.Filename, pos.Line, d.key)
		}
	}
	testIdents := testFileIdents(t, pkgs)
	for key := range testSeams {
		inUse, found := seamUsed[key]
		switch {
		case !found:
			t.Errorf("test seam %s no longer exists: drop it from testSeams", key)
		case inUse:
			t.Errorf("test seam %s is now used by a program: drop it from testSeams", key)
		case !testIdents[key[strings.LastIndexByte(key, '.')+1:]]:
			t.Errorf("test seam %s is used by no test either: delete it", key)
		}
	}
}

// recvNamed is the named type method fn is declared on.
func recvNamed(fn *types.Func) *types.Named {
	rt := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	return rt.(*types.Named)
}

// interfaces returns the interfaces a method can be called through: error,
// Unwrap (which errors.Is and errors.As call through an anonymous
// interface), and every exported named interface declared in the module or
// in a package it imports.
func interfaces(pkgs []*analysis.Package) []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	out := []*types.Interface{
		errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(),
	}
	seen := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		for _, p := range append([]*types.Package{pkg.Pkg}, pkg.Pkg.Imports()...) {
			if seen[p] {
				continue
			}
			seen[p] = true
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						out = append(out, it)
					}
				}
			}
		}
	}
	return out
}

// satisfiesInterface reports whether fn belongs to one of ifaces that its
// type implements, so callers reach it through the interface.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	named := recvNamed(fn)
	for _, it := range ifaces {
		if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

// testFileIdents returns every identifier named in the _test.go files
// beside the loaded packages: enough to tell whether a test still uses a
// seam.
func testFileIdents(t *testing.T, pkgs []*analysis.Package) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		dir := filepath.Dir(pkg.Fset.Position(pkg.Files[0].Pos()).Filename)
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					names[id.Name] = true
				}
				return true
			})
		}
	}
	return names
}
