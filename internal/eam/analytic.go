// Package eam implements the Embedded-Atom Method potential used as the
// physical interaction by both the MD and KMC engines (paper §2, Eq. 1-3):
//
//	E_total = Σ_i e_i + Σ_i F(ρ_i)
//	e_i     = ½ Σ_{j≠i} φ_ij(r_ij)
//	ρ_i     = Σ_{j≠i} f_ij(r_ij)
//
// Three interpolation-table families back the computation — pair potential,
// electron-cloud density, and embedding energy — in the compacted layout of
// the paper's §2.1.2: 5000 sampled values (~39 KB) per table, from which the
// spline coefficients are reconstructed on the fly by a finite-difference
// formula, so a table fits the Sunway CPE's 64 KB local store. The
// traditional layout it replaces — 5000×7 coefficient rows (~273 KB), as in
// LAMMPS and CoMD — is never built: TableBytes reports its size, and the
// tests keep it as the oracle the compacted tables are checked against.
//
// The underlying analytic model is a Finnis-Sinclair-type iron potential
// with a ZBL screened-Coulomb core blended in at short range so that the
// keV-scale cascade collisions of the damage simulation see a physically
// stiff wall. A synthetic copper parametrization exercises the alloy
// multi-table path. The parametrizations are documented substitutions for
// the production potential files used by the paper (DESIGN.md §2).
package eam

import (
	"math"

	"mdkmc/internal/units"
)

// Finnis-Sinclair iron parameters (Finnis & Sinclair 1984, Fe column).
// Pair:    φ(r) = (r-c)² (c0 + c1 r + c2 r²)            for r < c
// Density: f(r) = (r-d)² + β (r-d)³ / d                 for r < d
// Embed:   F(ρ) = -A √ρ
type fsParams struct {
	c          float64 // pair cutoff (Å)
	c0, c1, c2 float64 // pair polynomial coefficients
	d          float64 // density cutoff (Å)
	beta       float64 // density cubic-term weight
	a          float64 // embedding prefactor A (eV)
	z          float64 // atomic number (for the ZBL core)
}

var fsFe = fsParams{
	c:  3.40,
	c0: 1.2371147, c1: -0.3592185, c2: -0.0385607,
	d:    3.569745,
	beta: 1.8,
	a:    1.8289055,
	z:    26,
}

// fsCu is a synthetic copper-like parametrization (scaled iron) whose only
// purpose is to exercise the alloy multi-table code path; it is not fitted
// to copper properties.
var fsCu = fsParams{
	c:  3.40,
	c0: 1.05, c1: -0.30, c2: -0.033,
	d:    3.50,
	beta: 1.6,
	a:    1.70,
	z:    29,
}

func paramsFor(e units.Element) fsParams {
	if e == units.Cu {
		return fsCu
	}
	return fsFe
}

// CutoffFor returns the interaction cutoff radius in Å for the given species
// pair: the larger of the pair and density cutoffs.
func CutoffFor(a, b units.Element) float64 {
	pa, pb := paramsFor(a), paramsFor(b)
	return math.Max(math.Max(pa.c, pb.c), math.Max(pa.d, pb.d))
}

// ZBL screened-Coulomb blending window (Å): pure ZBL below zblEnd-zblWidth,
// pure Finnis-Sinclair above zblEnd.
const (
	zblEnd   = 2.0
	zblStart = 1.0
	coulombK = 14.399645 // e²/(4πε₀) in eV·Å
)

// zbl returns the Ziegler-Biersack-Littmark universal screening potential
// and its derivative for nuclear charges z1, z2 at separation r.
func zbl(z1, z2, r float64) (v, dv float64) {
	as := 0.46850 / (math.Pow(z1, 0.23) + math.Pow(z2, 0.23))
	x := r / as
	type term struct{ c, b float64 }
	terms := [4]term{
		{0.18175, 3.19980},
		{0.50986, 0.94229},
		{0.28022, 0.40290},
		{0.02817, 0.20162},
	}
	var phi, dphi float64
	for _, t := range terms {
		e := t.c * math.Exp(-t.b*x)
		phi += e
		dphi -= t.b * e / as
	}
	// Parenthesized so the prefactor is bitwise symmetric under species
	// exchange: (k*z1)*z2 and (k*z2)*z1 can differ in the last ulp, which
	// would break the half-neighbor kernel's shared per-pair scalar.
	pre := coulombK * (z1 * z2)
	v = pre * phi / r
	dv = pre * (dphi/r - phi/(r*r))
	return
}

// blend returns the switching weight w(r) (1 below zblStart, 0 above zblEnd)
// and its derivative; a cosine switch keeps the blended potential C¹.
func blend(r float64) (w, dw float64) {
	switch {
	case r <= zblStart:
		return 1, 0
	case r >= zblEnd:
		return 0, 0
	}
	t := (r - zblStart) / (zblEnd - zblStart)
	w = 0.5 * (1 + math.Cos(math.Pi*t))
	dw = -0.5 * math.Pi * math.Sin(math.Pi*t) / (zblEnd - zblStart)
	return
}

// fsPair returns the Finnis-Sinclair pair term and derivative.
func fsPair(p fsParams, r float64) (v, dv float64) {
	if r >= p.c {
		return 0, 0
	}
	poly := p.c0 + p.c1*r + p.c2*r*r
	dpoly := p.c1 + 2*p.c2*r
	diff := r - p.c
	v = diff * diff * poly
	dv = 2*diff*poly + diff*diff*dpoly
	return
}

// CrossPairBias scales the Fe-Cu cross pair term above the arithmetic mean
// of the single-species terms. A value > 1 gives the alloy a positive
// mixing enthalpy, which is what drives the copper precipitation in α-Fe
// the coupled model is used for (Castin et al. 2011); the magnitude is a
// synthetic stand-in for a fitted cross potential (DESIGN.md §2).
const CrossPairBias = 1.08

// PairAnalytic returns φ_ab(r) and dφ/dr for the species pair (a, b): the
// arithmetic mean of the two single-species Finnis-Sinclair pair terms —
// scaled by CrossPairBias for unlike pairs — with the ZBL core blended in
// at short range.
func PairAnalytic(a, b units.Element, r float64) (v, dv float64) {
	if r <= 0 {
		// Queries at exactly zero distance cannot occur for distinct atoms;
		// return a huge repulsion so a bug is loud rather than silent.
		return 1e10, -1e12
	}
	pa, pb := paramsFor(a), paramsFor(b)
	va, dva := fsPair(pa, r)
	vb, dvb := fsPair(pb, r)
	fs, dfs := 0.5*(va+vb), 0.5*(dva+dvb)
	if a != b {
		fs *= CrossPairBias
		dfs *= CrossPairBias
	}
	w, dw := blend(r)
	if w == 0 {
		return fs, dfs
	}
	zv, zdv := zbl(pa.z, pb.z, r)
	v = w*zv + (1-w)*fs
	dv = w*zdv + dw*zv + (1-w)*dfs - dw*fs
	return
}

// DensityAnalytic returns the electron-density contribution f_ab(r) that a
// neighbor of species b adds to a host of species a, and its derivative.
// In the Finnis-Sinclair form the contribution is a property of the source
// species; the pair-indexed signature mirrors the paper's per-pair density
// tables for alloys.
func DensityAnalytic(a, b units.Element, r float64) (v, dv float64) {
	p := paramsFor(b)
	if r >= p.d || r <= 0 {
		return 0, 0
	}
	diff := r - p.d
	v = diff*diff + p.beta*diff*diff*diff/p.d
	dv = 2*diff + 3*p.beta*diff*diff/p.d
	// Density must not go negative at very short range (the cubic term can
	// dominate); clamp, keeping C¹ continuity where it matters (r near d).
	if v < 0 {
		return 0, 0
	}
	return
}

// EmbedAnalytic returns the embedding energy F_a(ρ) = -A√ρ and dF/dρ.
func EmbedAnalytic(a units.Element, rho float64) (v, dv float64) {
	p := paramsFor(a)
	if rho <= 0 {
		return 0, 0
	}
	s := math.Sqrt(rho)
	return -p.a * s, -p.a / (2 * s)
}

// EquilibriumDensity returns the host electron density of a perfect BCC
// lattice of species e with lattice constant a0, summed over the neighbor
// shells within the cutoff. Used to size the embedding table's ρ range.
func EquilibriumDensity(e units.Element, a0 float64) float64 {
	// 1NN: 8 at a√3/2, 2NN: 6 at a, 3NN: 12 at a√2 (beyond d for Fe).
	shells := []struct {
		n int
		r float64
	}{
		{8, a0 * math.Sqrt(3) / 2},
		{6, a0},
		{12, a0 * math.Sqrt2},
	}
	var rho float64
	for _, s := range shells {
		f, _ := DensityAnalytic(e, e, s.r)
		rho += float64(s.n) * f
	}
	return rho
}
