// Package a exercises hashcover: direct coverage, transitive coverage
// through same-package helpers, exemptions, stale exemptions, and the
// freshly-added-field regression the analyzer exists to catch.
package a

import "fmt"

// Config mirrors the real config shape: Hash covers fields directly and
// through a helper; Grid is a documented restart-neutral exclusion.
type Config struct {
	Cells       int
	Temperature float64
	Protocol    string

	//mdvet:ignore hashcover decomposition shape, rebuilt from the world at load
	Grid [3]int

	// FreshKnob is the regression fixture: a newly added field nobody
	// taught Hash about.
	FreshKnob int // want "field FreshKnob is invisible to \\(Config\\).Hash"

	Exempted bool //mdvet:ignore hashcover diagnostics toggle, never alters physics
}

// kmcConfig projects the protocol field; referencing Protocol here counts
// as hash coverage because Hash reaches it.
func (c *Config) kmcConfig() string {
	return c.Protocol
}

func (c *Config) Hash() string {
	return fmt.Sprintf("%d|%g|%s", c.Cells, c.Temperature, c.kmcConfig())
}

// uncovered has a Hash that reaches no helper: both odd fields flag.
type uncovered struct {
	A int // want "field A is invisible to \\(uncovered\\).Hash"
	B int
}

func (u uncovered) Hash() string { return fmt.Sprint(u.B) }

// staleExempt is fully covered, so its exemption suppresses nothing.
type staleExempt struct {
	//mdvet:ignore hashcover covered below, directive is dead // want "stale //mdvet:ignore hashcover directive"
	N int
}

func (s *staleExempt) Hash() string { return fmt.Sprint(s.N) }

// notTheContract has Hash methods with the wrong shape: ignored.
type notTheContract struct {
	X int
}

func (n *notTheContract) Hash(salt string) string { return salt }

// literalKeys covers fields through composite-literal keys.
type literalKeys struct {
	P int
	Q int
}

func (l literalKeys) Hash() string {
	cp := literalKeys{P: l.P, Q: l.Q}
	return fmt.Sprint(cp)
}

// viaValue: coverage via a method-value call does not resolve in the
// callgraph, so R is (conservatively) reported — the documented limit.
type viaValue struct {
	R int // want "field R is invisible to \\(viaValue\\).Hash"
}

func (v *viaValue) project() string { return fmt.Sprint(v.R) }

func (v *viaValue) Hash() string {
	f := v.project
	return f()
}
