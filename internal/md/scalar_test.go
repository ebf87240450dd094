package md

import (
	"math"
	"testing"

	"mdkmc/internal/rng"
	"mdkmc/internal/units"
)

// pairScalarBranchy is pairScalar written with the branch on the key
// comparison, as the kernels had it before the order became a bit mask: the
// oracle of the branch-free body.
func pairScalarBranchy(dphi, dFc, dfc, dFp, dfp float64, ctyp, ptyp units.Element, crho, prho float64) float64 {
	tc, tp := float64(dFc*dfc), float64(dFp*dfp)
	if ptyp < ctyp || (ptyp == ctyp && prho < crho) {
		return dphi + tp + tc
	}
	return dphi + tc + tp
}

// TestPairScalarIsCanonicalOrder pins the branch-free pairScalar to the
// branchy canonical order bit for bit: over ρ ties, ±0 densities, equal and
// unequal species in both orders, and random values. The fixed terms are
// chosen so the two summation orders round differently, so a swap taken
// the wrong way (a wrong mask, a flipped comparison) changes the result.
func TestPairScalarIsCanonicalOrder(t *testing.T) {
	check := func(dphi, dFc, dfc, dFp, dfp float64, ctyp, ptyp units.Element, crho, prho float64) {
		t.Helper()
		got := pairScalar(dphi, dFc, dfc, dFp, dfp, ctyp, ptyp, crho, prho)
		want := pairScalarBranchy(dphi, dFc, dfc, dFp, dfp, ctyp, ptyp, crho, prho)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pairScalar(%v, %v, %v, %v, %v, %v, %v, %v, %v) = %v, canonical order gives %v",
				dphi, dFc, dfc, dFp, dfp, ctyp, ptyp, crho, prho, got, want)
		}
	}
	// 1 + 2⁻⁵³ + (−1) is 0 in one order and 2⁻⁵³ in the other.
	const dphi, tiny = 1.0, 0x1p-53
	if pairScalarBranchy(dphi, tiny, 1, -1, 1, units.Fe, units.Fe, 1, 2) ==
		pairScalarBranchy(dphi, tiny, 1, -1, 1, units.Fe, units.Fe, 2, 1) {
		t.Fatal("the fixed terms do not tell the two orders apart")
	}
	negZero := math.Copysign(0, -1)
	rhos := [][2]float64{
		{1.5, 1.5}, {1.5, 2.5}, {2.5, 1.5}, // tie, and both orders
		{0, negZero}, {negZero, 0}, {0, 0}, {negZero, negZero}, // ±0
		{negZero, 1e-300}, {-1e-300, 0}, {math.Inf(1), 1}, {1, math.Inf(1)},
	}
	species := []units.Element{units.Fe, units.Cu}
	for _, ct := range species {
		for _, pt := range species {
			for _, rho := range rhos {
				// The central's term tiny and the partner's −1, and the reverse.
				check(dphi, tiny, 1, -1, 1, ct, pt, rho[0], rho[1])
				check(dphi, -1, 1, tiny, 1, ct, pt, rho[0], rho[1])
				// The two terms ±0 against each other.
				check(negZero, 0, 1, negZero, 1, ct, pt, rho[0], rho[1])
			}
		}
	}
	// Random values over many magnitudes: most draws sum differently in the
	// two orders. A quarter of the draws share the species, so the densities
	// decide, and a quarter share the species and the density.
	src := rng.New(42)
	draw := func() float64 {
		v := math.Ldexp(src.Float64()+0.5, int(src.Uint64()%60)-30)
		if src.Uint64()&1 == 0 {
			v = -v
		}
		return v
	}
	for k := 0; k < 200000; k++ {
		ct, pt := units.Element(src.Uint64()&1), units.Element(src.Uint64()&1)
		crho, prho := draw(), draw()
		switch k % 4 {
		case 0:
			pt = ct
		case 1:
			pt, prho = ct, crho
		}
		check(draw(), draw(), draw(), draw(), draw(), ct, pt, crho, prho)
	}
}
