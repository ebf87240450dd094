// Package a exercises spanbalance: dropped results, shadowed and leaked
// spans, loop imbalance, and the sanctioned idioms (linear bracket,
// defer, error-propagating early returns, sequential reuse).
package a

import (
	"errors"
	"mdkmc/internal/telemetry"
)

func linear(reg *telemetry.Registry) int {
	sp := reg.Timer("x").Begin()
	n := 1
	sp.End()
	return n
}

func deferred(reg *telemetry.Registry) {
	sp := reg.Timer("x").Begin()
	defer sp.End()
	work()
}

func deferredClosure(reg *telemetry.Registry) {
	sp := reg.Timer("x").Begin()
	defer func() { sp.End() }()
	work()
}

func sequentialReuse(reg *telemetry.Registry) {
	sp := reg.Timer("get").Begin()
	work()
	sp.End()
	sp = reg.Timer("put").Begin()
	work()
	sp.End()
}

func errorExempt(reg *telemetry.Registry, fail bool) error {
	sp := reg.Timer("x").Begin()
	if fail {
		return errors.New("abort: the run tears down, span abandoned")
	}
	sp.End()
	return nil
}

func endBeforeErrorReturnToo(reg *telemetry.Registry, fail bool) error {
	sp := reg.Timer("x").Begin()
	if fail {
		sp.End()
		return errors.New("also fine: balanced by hand")
	}
	sp.End()
	return nil
}

func panicPath(reg *telemetry.Registry, bad bool) {
	sp := reg.Timer("x").Begin()
	if bad {
		panic("abort path: report abandoned with the run")
	}
	sp.End()
}

func loopBalanced(reg *telemetry.Registry, n int) {
	for i := 0; i < n; i++ {
		sp := reg.Timer("cycle").Begin()
		work()
		sp.End()
	}
}

func inlineBracket(reg *telemetry.Registry) {
	reg.Timer("x").Begin().End()
}

func escapesToCall(reg *telemetry.Registry) {
	sp := reg.Timer("x").Begin()
	closeElsewhere(sp) // escapes: assumed balanced by the callee
}

func dropResult(reg *telemetry.Registry) {
	reg.Timer("x").Begin() // want "result of Timer.Begin\\(\\) is dropped"
}

func dropToBlank(reg *telemetry.Registry) {
	_ = reg.Timer("x").Begin() // want "result of Timer.Begin\\(\\) is dropped"
}

func shadowed(reg *telemetry.Registry) {
	sp := reg.Timer("a").Begin()
	work()
	sp = reg.Timer("b").Begin() // want "span sp is re-begun before .End"
	sp.End()
}

func shadowedUnderDefer(reg *telemetry.Registry) {
	sp := reg.Timer("a").Begin()
	defer sp.End()
	work()
	sp = reg.Timer("b").Begin() // want "span sp is re-begun while `defer sp.End\\(\\)` is pending"
}

func leakOnReturn(reg *telemetry.Registry, skip bool) {
	sp := reg.Timer("x").Begin() // want "still live at the return"
	if skip {
		return
	}
	sp.End()
}

func leakNilError(reg *telemetry.Registry, skip bool) error {
	sp := reg.Timer("x").Begin() // want "still live at the return"
	if skip {
		return nil // a nil error does not abort the run: the span leaks
	}
	sp.End()
	return nil
}

func leakAtEnd(reg *telemetry.Registry, cond bool) {
	sp := reg.Timer("x").Begin() // want "does not reach .End\\(\\) before the function returns"
	if cond {
		sp.End()
		return
	}
	// falls off the end with the span still live
}

func pathDependent(reg *telemetry.Registry, cond bool) {
	sp := reg.Timer("x").Begin() // want "Ends on some paths through this branch but not others"
	if cond {
		sp.End()
	}
	work()
}

func loopImbalance(reg *telemetry.Registry, n int) {
	var sp telemetry.Span
	for i := 0; i < n; i++ {
		sp = reg.Timer("cycle").Begin() // want "does not End by the bottom of the loop body"
	}
	sp.End()
}

func switchBalanced(reg *telemetry.Registry, mode int) {
	sp := reg.Timer("x").Begin()
	switch mode {
	case 0:
		work()
	default:
		work()
	}
	sp.End()
}

func switchPathDependent(reg *telemetry.Registry, mode int) {
	sp := reg.Timer("x").Begin() // want "Ends on some paths through this branch but not others"
	switch mode {
	case 0:
		sp.End()
	}
	work()
}

// selectBalanced: a default-less select blocks until a clause runs, so a
// span ended in every clause is ended on every path.
func selectBalanced(reg *telemetry.Registry, done, tick chan struct{}) {
	sp := reg.Timer("x").Begin()
	select {
	case <-done:
		sp.End()
	case <-tick:
		work()
		sp.End()
	}
	work()
}

func work() {}

func closeElsewhere(sp telemetry.Span) {}
