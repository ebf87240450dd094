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
// differences at the table edges.
func (t *Table) nodeDeriv(i int) float64 {
	n := t.N()
	s := t.S
	switch {
	case i >= 2 && i <= n-2:
		// The paper's symmetric five-point stencil.
		return (s[i-2] - s[i+2] + 8*(s[i+1]-s[i-1])) / (12 * t.Dx)
	// Third-order one-sided stencils keep edge segments at the accuracy of
	// the interior.
	case i == 0:
		return (-11*s[0] + 18*s[1] - 9*s[2] + 2*s[3]) / (6 * t.Dx)
	case i == 1:
		return (-2*s[0] - 3*s[1] + 6*s[2] - s[3]) / (6 * t.Dx)
	case i == n-1:
		return (2*s[n] + 3*s[n-1] - 6*s[n-2] + s[n-3]) / (6 * t.Dx)
	default: // i == n
		return (11*s[n] - 18*s[n-1] + 9*s[n-2] - 2*s[n-3]) / (6 * t.Dx)
	}
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
// segment index across tables that share the same grid; the result is
// bitwise identical to Eval. An interior segment — both end nodes on the
// symmetric five-point stencil — takes its six samples in one window and
// forms both node derivatives with nodeDeriv's own expressions; the four
// edge segments go through nodeDeriv.
func (t *Table) evalSeg(i int, u float64) (v, dv float64) {
	if i >= 2 && i+3 < len(t.S) {
		w := t.S[i-2 : i+4 : i+4]
		d0 := (w[0] - w[4] + 8*(w[3]-w[1])) / (12 * t.Dx) * t.Dx
		d1 := (w[1] - w[5] + 8*(w[4]-w[2])) / (12 * t.Dx) * t.Dx
		return hermite(w[2], w[3], d0, d1, u, t.Dx)
	}
	s0, s1 := t.S[i], t.S[i+1]
	d0 := t.nodeDeriv(i) * t.Dx // derivative per grid cell for Hermite form
	d1 := t.nodeDeriv(i+1) * t.Dx
	return hermite(s0, s1, d0, d1, u, t.Dx)
}

// hermite evaluates the cubic Hermite interpolant with node values s0,s1 and
// node derivatives d0,d1 (per grid cell) at fraction u in [0,1], returning
// the value and the derivative per unit x (dx = grid spacing).
func hermite(s0, s1, d0, d1, u, dx float64) (v, dv float64) {
	// v(u) = s0 + d0 u + (3Δ - 2d0 - d1) u² + (d0 + d1 - 2Δ) u³, Δ = s1-s0.
	delta := s1 - s0
	c2 := 3*delta - 2*d0 - d1
	c3 := d0 + d1 - 2*delta
	v = s0 + u*(d0+u*(c2+u*c3))
	dv = (d0 + u*(2*c2+3*u*c3)) / dx
	return
}
