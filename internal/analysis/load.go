package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
)

// listMeta is the subset of `go list -json` output the loader consumes.
type listMeta struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Loader parses and type-checks module packages from source. Module-
// internal dependencies are checked once and shared; standard-library
// imports resolve through the go/importer source importer, so the loader
// works offline with nothing but the go toolchain.
//
// Only GoFiles are analyzed (no _test.go files): the contracts mdvet
// enforces are about simulation code, and tests legitimately use wall
// clocks and ad-hoc iteration.
type Loader struct {
	Fset *token.FileSet

	std  types.Importer
	meta map[string]*listMeta
	pkgs map[string]*Package
	std2 map[string]*types.Package // memoized stdlib imports
}

// NewLoader creates an empty loader with a fresh FileSet.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		meta: map[string]*listMeta{},
		pkgs: map[string]*Package{},
		std2: map[string]*types.Package{},
	}
}

// Load resolves the go list patterns (e.g. "./...") and returns the
// matched module packages, parsed and type-checked.
func Load(patterns ...string) ([]*Package, error) {
	return NewLoader().Load(patterns...)
}

// Load implements the package-level Load on a reusable loader.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	roots, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, path := range roots {
		m := l.meta[path]
		if m.Standard || len(m.GoFiles) == 0 {
			continue
		}
		pkg, err := l.check(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// list runs `go list -deps -json` over the patterns, caches every
// package's metadata, and returns the root (non-dependency) import paths
// in stable order.
func (l *Loader) list(patterns []string) ([]string, error) {
	args := append([]string{"list", "-e", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var roots []string
	dec := json.NewDecoder(bytes.NewReader(stdout))
	for {
		m := new(listMeta)
		if err := dec.Decode(m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		if m.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", m.ImportPath, m.Error.Err)
		}
		l.meta[m.ImportPath] = m
		if !m.DepOnly {
			roots = append(roots, m.ImportPath)
		}
	}
	sort.Strings(roots)
	return roots, nil
}

// check parses and type-checks one module package, memoized by path.
func (l *Loader) check(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	m, ok := l.meta[path]
	if !ok {
		// A dependency outside any earlier list run (e.g. a single-package
		// pattern): resolve it now.
		if _, err := l.list([]string{path}); err != nil {
			return nil, err
		}
		m = l.meta[path]
	}
	var files []*ast.File
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(m.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := NewPackage(path, l.Fset, files, (*loaderImporter)(l))
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// loaderImporter resolves imports during type-checking: module packages
// recurse through the loader's cache, everything else (the standard
// library) goes to the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if m, ok := l.meta[path]; ok && !m.Standard {
		pkg, err := l.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	if p, ok := l.std2[path]; ok {
		return p, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.std2[path] = p
	return p, nil
}
