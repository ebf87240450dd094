package eam

import (
	"bufio"
	"fmt"
	"io"

	"mdkmc/internal/units"
)

// WriteSetfl serializes a single-species potential in the DYNAMO/LAMMPS
// "setfl" (eam/alloy) text format: three comment lines, the element list,
// the table dimensions, then per element F(ρ) and f(r), then the pair
// table as r·φ(r). Production potentials are distributed in this format,
// so `cmd/potential -export` hands the analytic potential to other codes
// through it; the round-trip tests read the file back (readSetfl).
func WriteSetfl(w io.Writer, p *Potential, points int) error {
	if points < 8 {
		return fmt.Errorf("eam: setfl needs >= 8 points, got %d", points)
	}
	if len(p.Elements) != 1 {
		return fmt.Errorf("eam: setfl writer supports one element, potential has %d", len(p.Elements))
	}
	e := p.Elements[0]
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "mdkmc analytic potential export")
	fmt.Fprintln(bw, "Finnis-Sinclair form with ZBL core; see internal/eam")
	fmt.Fprintln(bw, "generated for round-trip testing and tool interchange")
	fmt.Fprintf(bw, "1 %s\n", e)
	drho := p.RhoMax() / float64(points-1)
	dr := p.Cutoff / float64(points-1)
	fmt.Fprintf(bw, "%d %.16g %d %.16g %.16g\n", points, drho, points, dr, p.Cutoff)
	// Element header: atomic number, mass, lattice constant, structure.
	z := 26
	if e == units.Cu {
		z = 29
	}
	fmt.Fprintf(bw, "%d %.6f %.6f %s\n", z, e.MassAMU(), units.LatticeConstantFe, "BCC")
	// F(rho).
	for i := 0; i < points; i++ {
		v, _ := p.Embed(e, float64(i)*drho)
		fmt.Fprintf(bw, "%.16g\n", v)
	}
	// f(r).
	for i := 0; i < points; i++ {
		v, _ := p.Density(e, e, float64(i)*dr)
		fmt.Fprintf(bw, "%.16g\n", v)
	}
	// r*phi(r).
	for i := 0; i < points; i++ {
		r := float64(i) * dr
		v, _ := p.Pair(e, e, r)
		fmt.Fprintf(bw, "%.16g\n", r*v)
	}
	return bw.Flush()
}
