package eam

import (
	"math"
	"testing"

	"mdkmc/internal/units"
)

// TestPairDensityMatchesSeparateEvals pins the bit-exactness contract of the
// fused lookup: for every evaluation mode and both species orders,
// PairDensity must agree with the three separate Pair/Density evaluations to
// the last ulp (i.e. exactly), across the whole tabulated range including
// the clamped edges. The half-neighbor force kernel shares one PairDensity
// result between the two sides of a pair, so any divergence here would break
// its bit-identity with the full-iteration reference.
func TestPairDensityMatchesSeparateEvals(t *testing.T) {
	for _, mode := range []Mode{Analytic, Compacted, Traditional} {
		pot := NewFeCu(mode, 600)
		pairs := [][2]units.Element{
			{units.Fe, units.Fe},
			{units.Fe, units.Cu},
			{units.Cu, units.Fe},
			{units.Cu, units.Cu},
		}
		// Probe points: a dense sweep over the table range plus the edge
		// cases (below RMin, at and beyond the cutoff).
		const probes = 4000
		for _, sp := range pairs {
			a, b := sp[0], sp[1]
			check := func(r float64) {
				t.Helper()
				phi, dphi, fab, dfab, fba, dfba := pot.PairDensity(a, b, r)
				wantPhi, wantDphi := pot.Pair(a, b, r)
				wantFab, wantDfab := pot.Density(a, b, r)
				wantFba, wantDfba := pot.Density(b, a, r)
				for _, c := range [][2]float64{
					{phi, wantPhi}, {dphi, wantDphi},
					{fab, wantFab}, {dfab, wantDfab},
					{fba, wantFba}, {dfba, wantDfba},
				} {
					if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
						t.Fatalf("mode=%v pair=%v-%v r=%v: fused %v != separate %v",
							mode, a, b, r, c[0], c[1])
					}
				}
			}
			for k := 0; k <= probes; k++ {
				check(0.01 + (pot.Cutoff+0.5-0.01)*float64(k)/probes)
			}
			check(pot.Cutoff)
			check(pot.RMin)
		}
	}
}

// TestPairAnalyticBitwiseSymmetric guards the species-exchange symmetry of
// the pair term: φ_ab(r) and φ_ba(r) — and their derivatives — must be
// bitwise equal, in every mode. The ZBL prefactor is parenthesized
// specifically to make this hold; the half-neighbor kernel evaluates each
// unlike pair from only one side and relies on it.
func TestPairAnalyticBitwiseSymmetric(t *testing.T) {
	for _, mode := range []Mode{Analytic, Compacted, Traditional} {
		pot := NewFeCu(mode, 600)
		const probes = 4000
		for k := 0; k <= probes; k++ {
			r := 0.01 + (pot.Cutoff+0.2-0.01)*float64(k)/probes
			v1, d1 := pot.Pair(units.Fe, units.Cu, r)
			v2, d2 := pot.Pair(units.Cu, units.Fe, r)
			if math.Float64bits(v1) != math.Float64bits(v2) ||
				math.Float64bits(d1) != math.Float64bits(d2) {
				t.Fatalf("mode=%v r=%v: Fe-Cu pair term not bitwise symmetric: (%v,%v) vs (%v,%v)",
					mode, r, v1, d1, v2, d2)
			}
		}
	}
}

// TestEvalSegWindowMatchesNodeDeriv pins the interior fast path of
// Table.evalSeg — one six-sample window per segment — to the nodeDeriv path
// it replaces, bit for bit, on every segment of a small table (the four edge
// segments, which still call nodeDeriv, included).
func TestEvalSegWindowMatchesNodeDeriv(t *testing.T) {
	tab := NewTable(func(x float64) float64 { return math.Exp(-x) * math.Sin(3*x) }, 0.3, 2.9, 12)
	for i := 0; i < tab.N(); i++ {
		for _, u := range []float64{0, 1.0 / 3, 1} {
			v, dv := tab.evalSeg(i, u)
			wantV, wantDv := hermite(tab.S[i], tab.S[i+1],
				tab.nodeDeriv(i)*tab.Dx, tab.nodeDeriv(i+1)*tab.Dx, u, tab.Dx)
			if math.Float64bits(v) != math.Float64bits(wantV) ||
				math.Float64bits(dv) != math.Float64bits(wantDv) {
				t.Errorf("segment %d u=%v: evalSeg (%v, %v) != nodeDeriv path (%v, %v)",
					i, u, v, dv, wantV, wantDv)
			}
		}
	}
}
