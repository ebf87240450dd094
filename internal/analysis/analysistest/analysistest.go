// Package analysistest runs an mdvet analyzer over fixture packages and
// compares its findings against `// want "regexp"` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest with the standard library
// only.
//
// Fixtures live under the analyzer's testdata/src/<importpath>/ directory;
// the import path is the directory path relative to testdata/src, so a
// fixture directory testdata/src/mdkmc/internal/mpi provides the stub the
// analyzers match by its real import path. Imports resolve first against
// testdata/src, then against the standard library. Expectations:
//
//	c.Barrier() // want "guarded by a rank-dependent condition"
//
// Every want must be matched by a diagnostic on its line and every
// diagnostic must be matched by a want; multiple quoted regexps on one
// line express multiple expected findings.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mdkmc/internal/analysis"
)

// Run checks the analyzer against each fixture package (an import path
// under testdata/src).
func Run(t *testing.T, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	ld := newFixtureLoader(root)
	for _, path := range pkgPaths {
		pkg, err := ld.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		// A fixture tree belongs to exactly one analyzer, so running it alone
		// is the full suite for the directives the fixture carries: Check
		// adds the malformed- and stale-directive findings.
		diags, err := analysis.Check([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		compare(t, pkg, diags)
	}
}

// wantRe extracts the quoted regexps of one `// want` comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// compare matches diagnostics against the fixture's want comments.
func compare(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		tf := pkg.Fset.File(f.Pos())
		src, err := os.ReadFile(tf.Name())
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			for _, m := range wantRe.FindAllStringSubmatch(line[idx:], -1) {
				pattern, err := strconv.Unquote(`"` + m[1] + `"`)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", tf.Name(), i+1, m[1], err)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", tf.Name(), i+1, pattern, err)
				}
				wants = append(wants, &expectation{file: tf.Name(), line: i + 1, re: re, raw: pattern})
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// fixtureLoader type-checks fixture packages rooted at testdata/src.
type fixtureLoader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*analysis.Package
}

func newFixtureLoader(root string) *fixtureLoader {
	fset := token.NewFileSet()
	return &fixtureLoader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*analysis.Package{},
	}
}

func (l *fixtureLoader) load(path string) (*analysis.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := analysis.NewPackage(path, l.fset, files, (*fixtureImporter)(l))
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// fixtureImporter resolves imports against testdata/src first, then the
// standard library.
type fixtureImporter fixtureLoader

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	l := (*fixtureLoader)(fi)
	if st, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path))); err == nil && st.IsDir() {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}
