package md

import (
	"math"
	"testing"
)

// evGPa converts a pressure in eV/Å³ to GPa.
const evGPa = 160.21766

// cohesiveEnergy returns the potential energy per atom of the 0 K perfect
// crystal at lattice constant a, through NewRank's production force pass.
func cohesiveEnergy(t *testing.T, a float64) float64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cells = [3]int{6, 6, 6}
	cfg.Temperature = 0
	cfg.A = a
	var e float64
	runWorld(t, cfg, func(r *Rank) { e = r.LastPE / float64(cfg.NumAtoms()) })
	return e
}

func TestZeroKelvinEquationOfState(t *testing.T) {
	// The physics oracle the bit-identity tests cannot give: the bcc Fe
	// crystal's 0 K equation of state from the production kernel must
	// reproduce the potential's published fit — equilibrium lattice
	// constant a₀ = 2.8665 Å, cohesive energy E_c = −4.28 eV and bulk
	// modulus B = 173.1 GPa, where B = V·E″(V) = 2E″(a)/(9a₀) for two
	// atoms per a³ cell.
	const h = 0.002 // Å, the fit's sample spacing
	coarse, best := 0.0, math.Inf(1)
	for i := 0; i <= 15; i++ {
		a := 2.80 + 0.01*float64(i)
		if e := cohesiveEnergy(t, a); e < best {
			coarse, best = a, e
		}
	}
	// Least-squares parabola E = c0 + c1·x + c2·x² over x = a − coarse in
	// [−5h, 5h]: the sums of the normal equations are symmetric in x.
	var s2, s4, e0, e1, e2 float64
	const n = 11
	for i := -5; i <= 5; i++ {
		x := float64(i) * h
		e := cohesiveEnergy(t, coarse+x)
		s2 += x * x
		s4 += x * x * x * x
		e0 += e
		e1 += e * x
		e2 += e * x * x
	}
	c1 := e1 / s2
	c2 := (n*e2 - s2*e0) / (n*s4 - s2*s2)
	a0 := coarse - c1/(2*c2)
	ec := cohesiveEnergy(t, a0)
	bulk := 2 * (2 * c2) / (9 * a0) * evGPa
	t.Logf("a0 = %.5f Å, E_c = %.6f eV, B = %.1f GPa", a0, ec, bulk)
	if math.Abs(a0-2.8665) > 0.001 {
		t.Errorf("a0 = %.5f Å, want 2.8665 ± 0.001", a0)
	}
	if math.Abs(ec+4.28) > 0.001 {
		t.Errorf("E_c = %.6f eV, want -4.2800 ± 0.001", ec)
	}
	if math.Abs(bulk-173.1) > 0.02*173.1 {
		t.Errorf("B = %.1f GPa, want 173.1 ± 2%%", bulk)
	}
}
