package eam

import (
	"math"
	"testing"
	"testing/quick"

	"mdkmc/internal/units"
)

// numDeriv estimates df/dx by central difference.
func numDeriv(f func(float64) float64, x, h float64) float64 {
	return (f(x+h) - f(x-h)) / (2 * h)
}

func TestPairAnalyticDerivative(t *testing.T) {
	f := func(r float64) float64 { v, _ := PairAnalytic(units.Fe, units.Fe, r); return v }
	for _, r := range []float64{0.3, 0.8, 1.2, 1.7, 2.2, 2.6, 3.0, 3.3} {
		_, dv := PairAnalytic(units.Fe, units.Fe, r)
		nd := numDeriv(f, r, 1e-6)
		scale := math.Max(1, math.Abs(nd))
		if math.Abs(dv-nd)/scale > 1e-5 {
			t.Errorf("r=%v: dφ=%v, numeric %v", r, dv, nd)
		}
	}
}

func TestDensityAnalyticDerivative(t *testing.T) {
	f := func(r float64) float64 { v, _ := DensityAnalytic(units.Fe, units.Fe, r); return v }
	for _, r := range []float64{2.0, 2.5, 3.0, 3.4} {
		_, dv := DensityAnalytic(units.Fe, units.Fe, r)
		nd := numDeriv(f, r, 1e-6)
		if math.Abs(dv-nd) > 1e-5*math.Max(1, math.Abs(nd)) {
			t.Errorf("r=%v: df=%v, numeric %v", r, dv, nd)
		}
	}
}

func TestEmbedAnalyticDerivative(t *testing.T) {
	f := func(rho float64) float64 { v, _ := EmbedAnalytic(units.Fe, rho); return v }
	for _, rho := range []float64{0.5, 1, 2, 5, 10} {
		_, dv := EmbedAnalytic(units.Fe, rho)
		nd := numDeriv(f, rho, 1e-7)
		if math.Abs(dv-nd) > 1e-5*math.Max(1, math.Abs(nd)) {
			t.Errorf("rho=%v: dF=%v, numeric %v", rho, dv, nd)
		}
	}
}

func TestPairShortRangeRepulsive(t *testing.T) {
	// The ZBL core must make the pair term strongly repulsive and
	// monotonically decreasing at short range — the property cascade
	// collisions rely on.
	prev := math.Inf(1)
	for r := 0.1; r < 1.0; r += 0.05 {
		v, dv := PairAnalytic(units.Fe, units.Fe, r)
		if v <= 0 {
			t.Fatalf("pair potential not repulsive at r=%v: %v", r, v)
		}
		if v >= prev {
			t.Fatalf("pair potential not decreasing at r=%v", r)
		}
		if dv >= 0 {
			t.Fatalf("pair derivative not negative at r=%v", r)
		}
		prev = v
	}
}

func TestPairVanishesAtCutoff(t *testing.T) {
	c := CutoffFor(units.Fe, units.Fe)
	v, dv := PairAnalytic(units.Fe, units.Fe, c+0.01)
	if v != 0 || dv != 0 {
		t.Errorf("pair not zero beyond cutoff: %v %v", v, dv)
	}
	// Continuity at the FS cutoff (the (r-c)² form is C¹ there).
	v2, _ := PairAnalytic(units.Fe, units.Fe, fsFe.c-1e-9)
	if math.Abs(v2) > 1e-12 {
		t.Errorf("pair discontinuous at FS cutoff: %v", v2)
	}
}

func TestPairSymmetricInSpecies(t *testing.T) {
	for _, r := range []float64{0.5, 1.5, 2.5, 3.2} {
		v1, d1 := PairAnalytic(units.Fe, units.Cu, r)
		v2, d2 := PairAnalytic(units.Cu, units.Fe, r)
		if v1 != v2 || d1 != d2 {
			t.Errorf("pair not symmetric at r=%v", r)
		}
	}
}

func TestEquilibriumDensityPositive(t *testing.T) {
	rho := EquilibriumDensity(units.Fe, units.LatticeConstantFe)
	if rho <= 0 {
		t.Fatalf("equilibrium density %v", rho)
	}
	// And the embedding energy there must be negative (binding).
	v, _ := EmbedAnalytic(units.Fe, rho)
	if v >= 0 {
		t.Errorf("embedding energy at equilibrium density is %v, want < 0", v)
	}
}

func TestTableMatchesAnalyticWithinTolerance(t *testing.T) {
	p := NewFe(Compacted, TablePoints)
	for _, r := range []float64{0.3, 0.9, 1.6, 2.2, 2.47, 2.855, 3.1, 3.39} {
		va, _ := PairAnalytic(units.Fe, units.Fe, r)
		vt, _ := p.Pair(units.Fe, units.Fe, r)
		tol := 1e-6 * math.Max(1, math.Abs(va))
		if r < 0.5 {
			tol = 1e-3 * math.Abs(va) // steep ZBL region
		}
		if math.Abs(va-vt) > tol {
			t.Errorf("pair table at r=%v: %v vs analytic %v", r, vt, va)
		}
	}
	for _, r := range []float64{2.0, 2.5, 3.0, 3.5} {
		va, _ := DensityAnalytic(units.Fe, units.Fe, r)
		vt, _ := p.Density(units.Fe, units.Fe, r)
		if math.Abs(va-vt) > 1e-7 {
			t.Errorf("density table at r=%v: %v vs %v", r, vt, va)
		}
	}
	for _, rho := range []float64{0.5, 2, 8, 20} {
		va, _ := EmbedAnalytic(units.Fe, rho)
		vt, _ := p.Embed(units.Fe, rho)
		if math.Abs(va-vt) > 1e-5 {
			t.Errorf("embed table at rho=%v: %v vs %v", rho, vt, va)
		}
	}
}

func TestCompactedAndTraditionalAgree(t *testing.T) {
	// The two layouts are built from the same Hermite construction, so they
	// must agree to rounding error everywhere — the paper's claim that
	// compaction trades memory for recomputation without changing results.
	p := NewFe(Compacted, 512)
	fe := units.Fe
	layouts := map[string]struct {
		val   *Table
		coeff *CoeffTable
	}{
		"pair":    {p.pair[fe][fe].val, p.pair[fe][fe].coeff},
		"density": {p.dens[fe][fe].val, p.dens[fe][fe].coeff},
		"embed":   {p.embed[fe].val, p.embed[fe].coeff},
	}
	for kind, l := range layouts {
		if d := maxAbsDiff(l.val, l.coeff, 10000); d > 1e-10 {
			t.Errorf("%s: layouts differ by %v", kind, d)
		}
	}
}

// maxAbsDiff reports the maximum absolute difference between the two
// layouts' evaluations over m probe points.
func maxAbsDiff(t *Table, ct *CoeffTable, m int) float64 {
	var worst float64
	x1 := t.X0 + float64(t.N())*t.Dx
	for k := 0; k <= m; k++ {
		x := t.X0 + (x1-t.X0)*float64(k)/float64(m)
		a, _ := t.Eval(x)
		b, _ := ct.Eval(x)
		worst = math.Max(worst, math.Abs(a-b))
	}
	return worst
}

func TestModeSelection(t *testing.T) {
	pc := NewFe(Compacted, 1000)
	pt := pc.WithMode(Traditional)
	pa := pc.WithMode(Analytic)
	r := 2.6
	vc, _ := pc.Pair(units.Fe, units.Fe, r)
	vt, _ := pt.Pair(units.Fe, units.Fe, r)
	va, _ := pa.Pair(units.Fe, units.Fe, r)
	if math.Abs(vc-vt) > 1e-12 {
		t.Errorf("compacted %v vs traditional %v", vc, vt)
	}
	if math.Abs(vc-va) > 1e-6 {
		t.Errorf("compacted %v vs analytic %v", vc, va)
	}
}

func TestTableEvalDerivativeConsistent(t *testing.T) {
	// The derivative returned by Eval must be the exact derivative of the
	// interpolant (conservativeness of forces): check against a numeric
	// derivative of Eval's value output.
	tab := NewTable(func(x float64) float64 { return math.Sin(3 * x) }, 0, 2, 200)
	for _, x := range []float64{0.11, 0.5, 0.987, 1.5, 1.93} {
		_, dv := tab.Eval(x)
		f := func(y float64) float64 { v, _ := tab.Eval(y); return v }
		nd := numDeriv(f, x, 1e-7)
		if math.Abs(dv-nd) > 1e-5 {
			t.Errorf("x=%v: dv=%v numeric=%v", x, dv, nd)
		}
	}
}

func TestTableClampOutOfRange(t *testing.T) {
	tab := NewTable(func(x float64) float64 { return x * x }, 1, 2, 100)
	vLo, _ := tab.Eval(0.5)
	if math.Abs(vLo-1) > 1e-12 {
		t.Errorf("below-range eval = %v, want clamp to 1", vLo)
	}
	vHi, _ := tab.Eval(3)
	if math.Abs(vHi-4) > 1e-9 {
		t.Errorf("above-range eval = %v, want clamp to 4", vHi)
	}
}

func TestTableBytesMatchPaper(t *testing.T) {
	p := NewFe(Compacted, TablePoints)
	compacted, traditional := p.TableBytes()
	// Paper: compacted ≈ 39 KB, traditional ≈ 273 KB, ratio 1/7.
	if compacted < 39000 || compacted > 41000 {
		t.Errorf("compacted table = %d bytes, want ~40 KB", compacted)
	}
	if traditional < 273000 || traditional > 281000 {
		t.Errorf("traditional table = %d bytes, want ~273-280 KB", traditional)
	}
	ratio := float64(compacted) / float64(traditional)
	if math.Abs(ratio-1.0/7.0) > 0.01 {
		t.Errorf("layout ratio = %v, want ~1/7", ratio)
	}
}

func TestCompactedFitsLocalStoreTraditionalDoesNot(t *testing.T) {
	const ldm = 64 * 1024
	p := NewFe(Compacted, TablePoints)
	compacted, traditional := p.TableBytes()
	if compacted >= ldm {
		t.Errorf("compacted table (%d B) does not fit the 64 KB local store", compacted)
	}
	if traditional <= ldm {
		t.Errorf("traditional table (%d B) unexpectedly fits the local store", traditional)
	}
}

func TestHermiteReproducesCubics(t *testing.T) {
	// A cubic sampled on any grid must be reproduced exactly by the Hermite
	// construction away from the edge stencils.
	cubic := func(x float64) float64 { return 2 + x - 3*x*x + 0.5*x*x*x }
	tab := NewTable(cubic, 0, 4, 64)
	for _, x := range []float64{0.5, 1.1, 2.3, 3.3} {
		v, _ := tab.Eval(x)
		if math.Abs(v-cubic(x)) > 1e-10 {
			t.Errorf("cubic not reproduced at %v: %v vs %v", x, v, cubic(x))
		}
	}
}

func TestAlloyTablesIndependent(t *testing.T) {
	p := NewFeCu(Compacted, 1000)
	r := 2.5
	vFeFe, _ := p.Pair(units.Fe, units.Fe, r)
	vCuCu, _ := p.Pair(units.Cu, units.Cu, r)
	vFeCu, _ := p.Pair(units.Fe, units.Cu, r)
	if vFeFe == vCuCu {
		t.Errorf("Fe-Fe and Cu-Cu pair tables coincide")
	}
	// Cross term is the arithmetic mean of the single-species FS terms,
	// scaled by the demixing bias.
	want := CrossPairBias * 0.5 * (vFeFe + vCuCu)
	if math.Abs(vFeCu-want) > 1e-9 {
		t.Errorf("Fe-Cu pair = %v, want biased mean %v", vFeCu, want)
	}
	// The bias makes unlike bonds cost energy: 2*E(FeCu) > E(FeFe)+E(CuCu),
	// the positive mixing enthalpy that drives Cu precipitation.
	if 2*vFeCu <= vFeFe+vCuCu {
		t.Errorf("no positive mixing enthalpy: 2*%v <= %v + %v", vFeCu, vFeFe, vCuCu)
	}
}

func TestZBLKnownValue(t *testing.T) {
	// At r = 1 Å the Fe-Fe screened Coulomb energy is of order 100 eV —
	// check magnitude and the sign of the derivative.
	v, dv := zbl(26, 26, 1.0)
	if v < 50 || v > 500 {
		t.Errorf("zbl(26,26,1Å) = %v eV, expected O(100)", v)
	}
	if dv >= 0 {
		t.Errorf("zbl derivative %v, want negative", dv)
	}
}

func TestPotentialCutoffCoversAllPairs(t *testing.T) {
	p := NewFeCu(Analytic, 256)
	for _, a := range p.Elements {
		for _, b := range p.Elements {
			if c := CutoffFor(a, b); c > p.Cutoff {
				t.Errorf("pair %v-%v cutoff %v exceeds potential cutoff %v", a, b, c, p.Cutoff)
			}
		}
	}
}

func TestTableQuickProperty(t *testing.T) {
	tab := NewTable(math.Exp, 0, 1, 500)
	f := func(raw uint16) bool {
		x := float64(raw) / 65535
		v, _ := tab.Eval(x)
		return math.Abs(v-math.Exp(x)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPairCompacted(b *testing.B) {
	p := NewFe(Compacted, TablePoints)
	r := 2.6
	for i := 0; i < b.N; i++ {
		_, _ = p.Pair(units.Fe, units.Fe, r)
	}
}

func BenchmarkPairTraditional(b *testing.B) {
	p := NewFe(Traditional, TablePoints)
	r := 2.6
	for i := 0; i < b.N; i++ {
		_, _ = p.Pair(units.Fe, units.Fe, r)
	}
}

func BenchmarkPairAnalytic(b *testing.B) {
	p := NewFe(Analytic, TablePoints)
	r := 2.6
	for i := 0; i < b.N; i++ {
		_, _ = p.Pair(units.Fe, units.Fe, r)
	}
}
