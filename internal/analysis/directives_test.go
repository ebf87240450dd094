package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseDirectives(t *testing.T, src string) *Directives {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return NewDirectives(fset, []*ast.File{f})
}

func TestIgnoreRequiresReason(t *testing.T) {
	cases := []struct {
		name string
		text string
		bad  bool
	}{
		{"bare", "//mdvet:ignore", true},
		{"analyzer only", "//mdvet:ignore collsym", true},
		{"with reason", "//mdvet:ignore collsym caller holds a single-rank world", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := parseDirectives(t, "package p\n\nfunc f() {\n\t"+c.text+"\n\t_ = 1\n}\n")
			bad := d.Bad()
			if c.bad {
				if len(bad) != 1 || !strings.Contains(bad[0].Message, "malformed //mdvet:ignore") {
					t.Fatalf("want one malformed-directive diagnostic, got %v", bad)
				}
				return
			}
			if len(bad) != 0 {
				t.Fatalf("unexpected diagnostics: %v", bad)
			}
		})
	}
}

func TestIgnoreCoverage(t *testing.T) {
	d := parseDirectives(t, `package p

func f() {
	//mdvet:ignore collsym reason text
	_ = 1
}
`)
	at := func(line int) token.Position { return token.Position{Filename: "fix.go", Line: line} }
	if !d.Ignored("collsym", at(4)) {
		t.Error("directive line itself not covered")
	}
	if !d.Ignored("collsym", at(5)) {
		t.Error("line below the directive not covered")
	}
	if d.Ignored("collsym", at(6)) {
		t.Error("directive must not leak past the next line")
	}
	if d.Ignored("maporder", at(5)) {
		t.Error("directive must only suppress the named analyzer")
	}
}

// The exemptions that used to be directives of their own (a restart-neutral
// hash field, a licensed panic) are spelled //mdvet:ignore hashcover /
// //mdvet:ignore errpanic: the reason is as mandatory as for any ignore.
func TestHashExemptAndPanicsRequireReason(t *testing.T) {
	cases := []struct {
		name string
		text string
		bad  string // expected malformed-message fragment, "" for valid
	}{
		{"hashexempt bare", "//mdvet:ignore hashcover", "malformed //mdvet:ignore"},
		{"hashexempt with reason", "//mdvet:ignore hashcover derived at runtime, never hashed", ""},
		{"panics bare", "//mdvet:ignore errpanic", "malformed //mdvet:ignore"},
		{"panics with reason", "//mdvet:ignore errpanic unreachable: caller validated the range", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := parseDirectives(t, "package p\n\nfunc f() {\n\t"+c.text+"\n\t_ = 1\n}\n")
			bad := d.Bad()
			if c.bad != "" {
				if len(bad) != 1 || !strings.Contains(bad[0].Message, c.bad) {
					t.Fatalf("want one %q diagnostic, got %v", c.bad, bad)
				}
				return
			}
			if len(bad) != 0 {
				t.Fatalf("unexpected diagnostics: %v", bad)
			}
		})
	}
}

func TestHashExemptAndPanicsCoverage(t *testing.T) {
	d := parseDirectives(t, `package p

type s struct {
	//mdvet:ignore hashcover runtime knob
	a int
}

func f() {
	//mdvet:ignore errpanic unreachable by construction
	panic("x")
}
`)
	at := func(line int) token.Position { return token.Position{Filename: "fix.go", Line: line} }
	if !d.Ignored("hashcover", at(4)) || !d.Ignored("hashcover", at(5)) {
		t.Error("a hashcover exemption must cover its own line and the next")
	}
	if d.Ignored("hashcover", at(6)) {
		t.Error("a hashcover exemption must not leak past the next line")
	}
	if !d.Ignored("errpanic", at(9)) || !d.Ignored("errpanic", at(10)) {
		t.Error("an errpanic licence must cover its own line and the next")
	}
	if d.Ignored("errpanic", at(8)) {
		t.Error("an errpanic licence must not cover the line above")
	}
	if d.Ignored("errpanic", at(4)) || d.Ignored("hashcover", at(9)) {
		t.Error("the two exemptions must not suppress each other")
	}
}

func TestStaleDirectives(t *testing.T) {
	d := parseDirectives(t, `package p

func f() {
	//mdvet:ignore collsym used below
	_ = 1
	//mdvet:ignore maporder never fires
	_ = 2
	//mdvet:ignore hashcover never consulted
	_ = 3
	//mdvet:ignore errpanic consulted below
	_ = 4
}
`)
	at := func(line int) token.Position { return token.Position{Filename: "fix.go", Line: line} }
	// Simulate the analyzers: collsym suppresses at line 5, errpanic at
	// line 11; the maporder and hashcover ignores stay unused.
	if !d.Ignored("collsym", at(5)) {
		t.Fatal("collsym ignore should cover line 5")
	}
	if !d.Ignored("errpanic", at(11)) {
		t.Fatal("errpanic ignore should cover line 11")
	}
	stale := d.Stale()
	if len(stale) != 2 {
		t.Fatalf("want 2 stale directives, got %v", stale)
	}
	if stale[0].Pos.Line != 6 || !strings.Contains(stale[0].Message, "stale //mdvet:ignore maporder") {
		t.Errorf("stale[0] = %v, want the unused maporder ignore at line 6", stale[0])
	}
	if stale[1].Pos.Line != 8 || !strings.Contains(stale[1].Message, "stale //mdvet:ignore hashcover") {
		t.Errorf("stale[1] = %v, want the unused hashcover ignore at line 8", stale[1])
	}
}

func TestHotAndCollectiveDirectives(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", `package p

// kernel inner loop.
//
//mdvet:hot
func hot() {}

//mdvet:collective
func coll() {}

type T struct{}

//mdvet:collective
func (T) method() {}

func plain() {}
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDirectives(fset, []*ast.File{f})
	if bad := d.Bad(); len(bad) != 0 {
		t.Fatalf("unexpected diagnostics: %v", bad)
	}
	fns := map[string]*ast.FuncDecl{}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok {
			fns[fn.Name.Name] = fn
		}
	}
	if !d.IsHot(fns["hot"]) || d.IsHot(fns["coll"]) || d.IsHot(fns["plain"]) {
		t.Error("IsHot must reflect exactly the //mdvet:hot doc comments")
	}
	if !d.IsCollective(fns["coll"]) || !d.IsCollective(fns["method"]) || d.IsCollective(fns["hot"]) || d.IsCollective(fns["plain"]) {
		t.Error("IsCollective must reflect exactly the //mdvet:collective doc comments")
	}
}

// A comment that opens like a directive but is not one must not be a silent
// no-op: for a marker that would mean the contract is silently not
// enforced. This is also what catches a comment still spelling one of the
// retired directives (hashexempt, panics, boundary).
func TestUnknownAndMisplacedDirectives(t *testing.T) {
	cases := []struct {
		name string
		src  string
		bad  string // expected message fragment, "" for clean
	}{
		{"typo", "//mdvet:collectve\nfunc f() {}", "unknown directive //mdvet:collectve"},
		{"bare prefix", "//mdvet:\nfunc f() {}", "unknown directive //mdvet:"},
		{"retired hashexempt", "type s struct {\n\t//mdvet:hashexempt runtime knob\n\ta int\n}", "unknown directive //mdvet:hashexempt"},
		{"retired panics", "func f() {\n\t//mdvet:panics unreachable\n\tpanic(1)\n}", "unknown directive //mdvet:panics"},
		{"retired boundary", "//mdvet:boundary\nfunc f() {}", "unknown directive //mdvet:boundary"},
		{"hot inside a body", "func f() {\n\t//mdvet:hot\n\t_ = 1\n}", "misplaced //mdvet:hot"},
		{"collective on a type", "//mdvet:collective\ntype T struct{}", "misplaced //mdvet:collective"},
		{"collective detached from its func", "//mdvet:collective\n\nfunc f() {}", "misplaced //mdvet:collective"},
		{"hot with a note in a func doc", "// f is the kernel.\n//\n//mdvet:hot inner loop\nfunc f() {}", ""},
		{"prose mentioning a directive", "// see //mdvet:hashexempt in the old docs\nfunc f() {}", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := parseDirectives(t, "package p\n\n"+c.src+"\n")
			bad := d.Bad()
			if c.bad == "" {
				if len(bad) != 0 {
					t.Fatalf("unexpected diagnostics: %v", bad)
				}
				return
			}
			if len(bad) != 1 || bad[0].Analyzer != "mdvet" || !strings.Contains(bad[0].Message, c.bad) {
				t.Fatalf("want one %q diagnostic, got %v", c.bad, bad)
			}
		})
	}
}
