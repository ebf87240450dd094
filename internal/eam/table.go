package eam

import "fmt"

// TablePoints is the number of sampling segments per interpolation table,
// matching the paper's 5000-row tables ("Each traditional interpolation
// table ... is a 5000*7 2D array").
const TablePoints = 5000

// Table is the *compacted* interpolation table of §2.1.2: just the sampled
// function values, one float64 per segment boundary (~39 KB at 5000 points,
// 1/7 of the traditional layout). Spline coefficients are reconstructed on
// the fly from the samples by the five-point finite-difference formula shown
// in the paper's Figure 5:
//
//	L[i][deriv] = (S[i-2] - S[i+2] + 8*(S[i+1] - S[i-1])) / 12
//
// which is the fourth-order central estimate of dS/dx at node i (in units of
// the grid spacing). Evaluation builds the cubic Hermite interpolant of the
// segment from the two node values and the two reconstructed node
// derivatives; the returned derivative is the exact derivative of that same
// cubic, so forces computed from the table are exactly conservative with
// respect to the tabulated energy.
type Table struct {
	X0 float64   // coordinate of sample 0
	Dx float64   // grid spacing
	S  []float64 // len N+1 sample values at X0 + i*Dx
}

// NewTable samples fn at n+1 equally spaced points on [x0, x1].
func NewTable(fn func(float64) float64, x0, x1 float64, n int) *Table {
	if n < 8 || x1 <= x0 {
		//mdvet:ignore errpanic constructor precondition: table geometry is compiled into the potential, not job input
		panic(fmt.Sprintf("eam: bad table range [%v,%v] n=%d", x0, x1, n))
	}
	t := &Table{X0: x0, Dx: (x1 - x0) / float64(n), S: make([]float64, n+1)}
	for i := range t.S {
		t.S[i] = fn(x0 + float64(i)*t.Dx)
	}
	return t
}

// N returns the number of segments.
func (t *Table) N() int { return len(t.S) - 1 }

// Bytes returns the memory footprint of the sample array, the quantity that
// must fit the 64 KB CPE local store.
func (t *Table) Bytes() int { return 8 * len(t.S) }

// nodeDeriv returns the reconstructed derivative (per unit x, not per grid
// cell) at node i using the paper's five-point stencil, clamped to one-sided
// differences at the table edges. Every product is rounded on its own
// (float64(...)), here and in the rest of the segment arithmetic: a compiler
// that fuses a*b + c into one multiply-add (arm64 does) could otherwise fuse
// one inlined copy of the arithmetic and not another, and the per-call and
// block paths would part by an ulp (`make no-fma` checks the assembly).
func (t *Table) nodeDeriv(i int) float64 {
	n := t.N()
	s := t.S
	switch {
	case i >= 2 && i <= n-2:
		// The paper's symmetric five-point stencil.
		return centralDeriv(s[i-2], s[i-1], s[i+1], s[i+2], t.Dx)
	// Third-order one-sided stencils keep edge segments at the accuracy of
	// the interior.
	case i == 0:
		return (float64(-11*s[0]) + float64(18*s[1]) - float64(9*s[2]) + float64(2*s[3])) / (6 * t.Dx)
	case i == 1:
		return (float64(-2*s[0]) - float64(3*s[1]) + float64(6*s[2]) - s[3]) / (6 * t.Dx)
	case i == n-1:
		return (float64(2*s[n]) + float64(3*s[n-1]) - float64(6*s[n-2]) + s[n-3]) / (6 * t.Dx)
	default: // i == n
		return (float64(11*s[n]) - float64(18*s[n-1]) + float64(9*s[n-2]) - float64(2*s[n-3])) / (6 * t.Dx)
	}
}

// centralDeriv is the paper's five-point stencil over the samples two and
// one below a node (sm2, sm1) and one and two above it (sp1, sp2).
func centralDeriv(sm2, sm1, sp1, sp2, dx float64) float64 {
	return (sm2 - sp2 + float64(8*(sp1-sm1))) / (12 * dx)
}

// locate clamps x into the table range and returns the segment index and the
// fractional position within it.
func (t *Table) locate(x float64) (i int, u float64) {
	s := (x - t.X0) / t.Dx
	if s <= 0 {
		return 0, 0
	}
	n := t.N()
	if s >= float64(n) {
		return n - 1, 1
	}
	i = int(s)
	return i, s - float64(i)
}

// Eval returns the interpolated value and derivative at x, reconstructing
// the segment's cubic from the compacted samples on the fly.
func (t *Table) Eval(x float64) (v, dv float64) {
	i, u := t.locate(x)
	return t.evalSeg(i, u)
}

// evalSeg evaluates segment i at fraction u. Splitting locate from the
// segment evaluation lets the fused PairDensity locate once and reuse the
// segment index across tables that share the same grid, and lets a block
// evaluator (block.go) locate all its entries before it evaluates any; the
// result is bitwise identical to Eval. The segment kernel — the one copy of
// the table arithmetic every evaluation path runs — is innerSeg for an
// interior segment, both end nodes on the symmetric five-point stencil, and
// edgeSeg for the four edge segments.
func (t *Table) evalSeg(i int, u float64) (v, dv float64) {
	if t.interior(i) {
		return t.innerSeg(i, u)
	}
	return t.edgeSeg(i, u)
}

// interior reports whether segment i's end nodes are both on the symmetric
// stencil. Tables on one grid agree on it.
func (t *Table) interior(i int) bool { return i >= 2 && i+3 < len(t.S) }

// innerSeg evaluates interior segment i at fraction u: it takes the six
// samples in one window and forms both node derivatives with nodeDeriv's
// own expression. It calls nothing, so it skips the stack-growth check.
func (t *Table) innerSeg(i int, u float64) (v, dv float64) {
	w := t.S[i-2 : i+4 : i+4]
	dx := t.Dx
	// Derivatives per grid cell, for the Hermite form.
	d0 := float64(centralDeriv(w[0], w[1], w[3], w[4], dx) * dx)
	d1 := float64(centralDeriv(w[1], w[2], w[4], w[5], dx) * dx)
	return hermite(w[2], w[3], d0, d1, u, dx)
}

// edgeSeg evaluates edge segment i at fraction u through nodeDeriv.
func (t *Table) edgeSeg(i int, u float64) (v, dv float64) {
	d0 := float64(t.nodeDeriv(i) * t.Dx)
	d1 := float64(t.nodeDeriv(i+1) * t.Dx)
	return hermite(t.S[i], t.S[i+1], d0, d1, u, t.Dx)
}

// hermite evaluates the cubic Hermite interpolant with node values s0,s1 and
// node derivatives d0,d1 (per grid cell) at fraction u in [0,1], returning
// the value and the derivative per unit x (dx = grid spacing).
func hermite(s0, s1, d0, d1, u, dx float64) (v, dv float64) {
	// v(u) = s0 + d0 u + (3Δ - 2d0 - d1) u² + (d0 + d1 - 2Δ) u³, Δ = s1-s0.
	delta := s1 - s0
	c2 := float64(3*delta) - float64(2*d0) - d1
	c3 := d0 + d1 - float64(2*delta)
	v = s0 + float64(u*(d0+float64(u*(c2+float64(u*c3)))))
	dv = (d0 + float64(u*(float64(2*c2)+float64(float64(3*u)*c3)))) / dx
	return
}
