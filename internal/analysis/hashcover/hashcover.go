// Package hashcover implements the mdvet analyzer that keeps config-hash
// coverage complete. Restart refusal (DESIGN.md §13) compares Hash()
// strings: a checkpoint only resumes under a config whose hash matches the
// one recorded at save time. Every field added to a hashed struct must
// therefore either feed the hash or be explicitly declared restart-neutral
// — a silently unhashed knob lets a restart resume under a physically
// different configuration without refusing.
//
// For every method named Hash with no parameters and a single string
// result on a struct receiver, the analyzer collects the fields referenced
// in the method body and, transitively, in every same-package function the
// body reaches (via the callgraph summary — helpers like kmcConfig that
// project config fields count as coverage). A field that is never
// referenced is reported at its declaration unless an
// //mdvet:ignore hashcover <reason> directive on the field (same or
// preceding line) declares it restart-neutral.
//
// Soundness limits are the callgraph's (see that package): calls through
// function values or interfaces contribute no coverage, and any reference
// to the field object — even on a different instance of the struct —
// counts as coverage.
package hashcover

import (
	"go/ast"
	"go/types"

	"mdkmc/internal/analysis"
)

// Analyzer is the hashcover check.
var Analyzer = &analysis.Analyzer{
	Name: "hashcover",
	Doc:  "flag struct fields invisible to the struct's Hash method (restart-refusal completeness)",
	Run:  run,
}

func run(p *analysis.Pass) error {
	for _, fn := range analysis.Funcs(p.Files) {
		if obj, ok := p.TypesInfo.Defs[fn.Name].(*types.Func); ok && fn.Name.Name == "Hash" {
			checkHash(p, obj)
		}
	}
	return nil
}

// hashReceiver returns the receiver type of fn when fn is the hash
// contract: a method with no parameters returning exactly one string, on a
// named struct.
func hashReceiver(fn *types.Func) (*types.Named, *types.Struct) {
	named := analysis.RecvNamed(fn)
	sig := fn.Type().(*types.Signature)
	if named == nil || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return nil, nil
	}
	basic, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.String {
		return nil, nil
	}
	st, _ := named.Underlying().(*types.Struct)
	return named, st
}

func checkHash(p *analysis.Pass, hash *types.Func) {
	named, st := hashReceiver(hash)
	if st == nil {
		return
	}
	// Fields referenced anywhere in Hash or the same-package functions it
	// reaches.
	referenced := map[*types.Var]bool{}
	for fn := range p.Graph().Reachable(hash) {
		ast.Inspect(p.Graph().DeclOf(fn).Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel := p.TypesInfo.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
					if v, ok := sel.Obj().(*types.Var); ok {
						referenced[v] = true
					}
				}
			case *ast.Ident:
				// Composite-literal keys and embedded-field idents resolve
				// through Uses rather than Selections.
				if v, ok := p.TypesInfo.Uses[n].(*types.Var); ok && v.IsField() {
					referenced[v] = true
				}
			}
			return true
		})
	}
	for i := 0; i < st.NumFields(); i++ {
		if field := st.Field(i); !referenced[field] {
			p.Reportf(field.Pos(), "field %s is invisible to (%s).Hash: restart refusal cannot see changes to it — hash it or annotate //mdvet:ignore hashcover <reason>", field.Name(), named.Obj().Name())
		}
	}
}
