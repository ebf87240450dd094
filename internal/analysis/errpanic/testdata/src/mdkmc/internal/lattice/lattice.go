// Package lattice is an errpanic fixture standing in for a protected
// library package (the analyzer matches by import path).
package lattice

import "fmt"

func bare() {
	panic("invariant broken") // want "bare panic in library package"
}

func formatted(n int) {
	if n < 0 {
		panic(fmt.Sprintf("negative count %d", n)) // want "bare panic in library package"
	}
}

// The doc-comment form does NOT license the body — only a positional
// directive at the call does — so it is also stale.
//
//mdvet:ignore errpanic the mpi runtime converts rank panics into RankPanic errors // want "stale //mdvet:ignore errpanic directive"
func annotatedDoc() {
	panic("still flagged") // want "bare panic in library package"
}

func annotatedAtCall(n int) {
	if n < 0 {
		//mdvet:ignore errpanic unreachable: caller validated n via Config.Validate
		panic("negative")
	}
}

func annotatedTrailing(n int) {
	switch n {
	case 0:
	default:
		panic("unknown mode") //mdvet:ignore errpanic unreachable: exhaustive over validated modes
	}
}

func errorInstead(n int) error {
	if n < 0 {
		return fmt.Errorf("lattice: negative count %d", n)
	}
	return nil
}

func shadowed() {
	panic := func(s string) {}
	panic("not the builtin")
}

func stale() {
	//mdvet:ignore errpanic nothing here panics anymore // want "stale //mdvet:ignore errpanic directive"
	_ = 1
}
