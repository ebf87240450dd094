package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// directivePrefix opens every mdvet directive. It is the Go
// directive-comment form (no space after //), which gofmt never reflows.
const directivePrefix = "//mdvet:"

type ignoreKey struct {
	file string
	line int
}

// ignore is one //mdvet:ignore directive. Reportf marks it used when it
// actually suppresses a finding; one still unused after every analyzer ran
// is itself a finding (stale suppression — see Stale).
type ignore struct {
	analyzer string
	pos      token.Position
	used     bool
}

// Directives is the parsed set of //mdvet: comments of one package.
type Directives struct {
	// ignores maps a (file, line) to the ignores written there, by analyzer
	// name. A directive on line L suppresses findings on L (trailing
	// comment) and L+1 (full-line comment above the flagged statement).
	ignores map[ignoreKey]map[string]*ignore
	// markers holds, per marker kind (hot, collective), the positions of
	// the FuncDecls carrying it.
	markers map[string]map[token.Pos]bool
	// all ignores in parse order, for Stale.
	all []*ignore
	bad []Diagnostic
}

// NewDirectives scans the files' comments for //mdvet: directives. A
// comment that opens like one but is not one — an ignore without its
// mandatory reason, an unknown kind (a typo, a retired directive), a
// hot/collective marker outside a function's doc comment — would silently
// not enforce its contract, so it becomes a diagnostic retrievable via Bad.
func NewDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		ignores: map[ignoreKey]map[string]*ignore{},
		markers: map[string]map[token.Pos]bool{"hot": {}, "collective": {}},
	}
	for _, f := range files {
		documents := map[*ast.Comment]*ast.FuncDecl{}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Doc != nil {
				for _, c := range fn.Doc.List {
					documents[c] = fn
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, directivePrefix) {
					d.parse(fset.Position(c.Pos()), c.Text, documents[c])
				}
			}
		}
	}
	return d
}

// parse records one directive comment; fn is the function whose doc
// comment holds it, if any.
func (d *Directives) parse(pos token.Position, text string, fn *ast.FuncDecl) {
	fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
	kind := ""
	if len(fields) > 0 {
		kind = fields[0]
	}
	switch {
	case kind == "ignore" && len(fields) >= 3:
		key := ignoreKey{file: pos.Filename, line: pos.Line}
		if d.ignores[key] == nil {
			d.ignores[key] = map[string]*ignore{}
		}
		ig := &ignore{analyzer: fields[1], pos: pos}
		d.ignores[key][ig.analyzer] = ig
		d.all = append(d.all, ig)
	case kind == "ignore":
		d.badf(pos, "malformed //mdvet:ignore: want \"//mdvet:ignore <analyzer> <reason>\" (the reason is mandatory)")
	case d.markers[kind] != nil && fn != nil:
		d.markers[kind][fn.Pos()] = true
	case d.markers[kind] != nil:
		d.badf(pos, "misplaced //mdvet:"+kind+": the marker belongs in a function's doc comment; here it marks nothing and the contract is not enforced")
	default:
		d.badf(pos, "unknown directive //mdvet:"+kind+" (the directives are ignore, hot and collective): it is not enforced")
	}
}

func (d *Directives) badf(pos token.Position, msg string) {
	d.bad = append(d.bad, Diagnostic{Analyzer: "mdvet", Pos: pos, Message: msg})
}

// Ignored reports whether an //mdvet:ignore for the analyzer covers pos,
// and marks the directive used (a suppression that fires is not stale).
func (d *Directives) Ignored(analyzer string, pos token.Position) bool {
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if ig := d.ignores[ignoreKey{file: pos.Filename, line: line}][analyzer]; ig != nil {
			ig.used = true
			return true
		}
	}
	return false
}

// IsHot reports whether fn carries //mdvet:hot in its doc comment.
func (d *Directives) IsHot(fn *ast.FuncDecl) bool {
	return fn != nil && d.markers["hot"][fn.Pos()]
}

// IsCollective reports whether fn carries //mdvet:collective in its doc
// comment.
func (d *Directives) IsCollective(fn *ast.FuncDecl) bool {
	return fn != nil && d.markers["collective"][fn.Pos()]
}

// Bad returns one diagnostic per malformed, unknown or misplaced directive.
func (d *Directives) Bad() []Diagnostic { return d.bad }

// Stale returns one diagnostic per ignore directive that suppressed
// nothing. Only meaningful after every analyzer has run over the package
// (Check guarantees that); a directive whose analyzer never reported at
// its position is dead weight that silently licenses future regressions,
// so it is a finding in its own right.
func (d *Directives) Stale() []Diagnostic {
	var out []Diagnostic
	for _, ig := range d.all {
		if !ig.used {
			out = append(out, Diagnostic{
				Analyzer: "mdvet",
				Pos:      ig.pos,
				Message:  "stale //mdvet:ignore " + ig.analyzer + " directive: it suppresses no finding (remove it, or the contract drifted)",
			})
		}
	}
	return out
}
