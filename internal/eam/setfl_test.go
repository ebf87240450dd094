package eam

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"mdkmc/internal/units"
)

func TestSetflRoundTrip(t *testing.T) {
	p := NewFe(Compacted, 1000)
	var sb strings.Builder
	if err := WriteSetfl(&sb, p, 2000); err != nil {
		t.Fatal(err)
	}
	back, err := readSetfl(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Element != units.Fe {
		t.Errorf("element %v", back.Element)
	}
	if math.Abs(back.MassAMU-55.845) > 1e-3 {
		t.Errorf("mass %v", back.MassAMU)
	}
	if math.Abs(back.Cutoff-p.Cutoff) > 1e-12 {
		t.Errorf("cutoff %v vs %v", back.Cutoff, p.Cutoff)
	}
	// The read-back tables must reproduce the source potential.
	for _, r := range []float64{0.8, 1.5, 2.2, 2.855, 3.3} {
		want, _ := p.Pair(units.Fe, units.Fe, r)
		got, _ := back.Pair(r)
		tol := 1e-6 * math.Max(1, math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Errorf("pair at r=%v: %v vs %v", r, got, want)
		}
		wantF, _ := p.Density(units.Fe, units.Fe, r)
		gotF, _ := back.Density.Eval(r)
		if math.Abs(gotF-wantF) > 1e-7 {
			t.Errorf("density at r=%v: %v vs %v", r, gotF, wantF)
		}
	}
	for _, rho := range []float64{0.5, 2, 10} {
		want, _ := p.Embed(units.Fe, rho)
		got, _ := back.Embed.Eval(rho)
		if math.Abs(got-want) > 1e-5 {
			t.Errorf("embed at rho=%v: %v vs %v", rho, got, want)
		}
	}
}

func TestSetflPairDerivative(t *testing.T) {
	p := NewFe(Compacted, 1000)
	var sb strings.Builder
	if err := WriteSetfl(&sb, p, 4000); err != nil {
		t.Fatal(err)
	}
	back, err := readSetfl(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{1.2, 2.0, 2.9} {
		_, dv := back.Pair(r)
		f := func(x float64) float64 { v, _ := back.Pair(x); return v }
		nd := (f(r+1e-6) - f(r-1e-6)) / 2e-6
		if math.Abs(dv-nd) > 1e-4*math.Max(1, math.Abs(nd)) {
			t.Errorf("r=%v: dv=%v numeric=%v", r, dv, nd)
		}
	}
}

func TestSetflWriterValidation(t *testing.T) {
	p := NewFe(Compacted, 256)
	var sb strings.Builder
	if err := WriteSetfl(&sb, p, 4); err == nil {
		t.Errorf("tiny point count accepted")
	}
	alloy := NewFeCu(Compacted, 256)
	if err := WriteSetfl(&sb, alloy, 100); err == nil {
		t.Errorf("multi-element potential accepted by single-element writer")
	}
}

func TestSetflReaderRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"a\nb\nc\n2 Fe Cu\n",             // two elements
		"a\nb\nc\n1 Xx\n",                // unknown element
		"a\nb\nc\n1 Fe\n10 0.1 10 0.1\n", // short dimension line
		"a\nb\nc\n1 Fe\n10 0.1 10 0.1 3.4\n26 55.8 2.855 BCC\n1 2 3\n", // truncated body
	}
	for i, c := range cases {
		if _, err := readSetfl(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// setflTables is a potential read back from a setfl file: plain compacted
// value tables plus the grid metadata.
type setflTables struct {
	Element units.Element
	MassAMU float64
	Cutoff  float64
	Embed   *Table // F(ρ) on [0, (n-1)·dρ]
	Density *Table // f(r) on [0, cutoff]
	RPhi    *Table // r·φ(r) on [0, cutoff]
}

// Pair evaluates φ(r) and its derivative from the r·φ table.
func (t *setflTables) Pair(r float64) (v, dv float64) {
	if r <= 0 || r >= t.Cutoff {
		return 0, 0
	}
	rp, drp := t.RPhi.Eval(r)
	v = rp / r
	dv = (drp - v) / r
	return
}

// readSetfl parses a single-element setfl stream: the round-trip oracle of
// WriteSetfl.
func readSetfl(r io.Reader) (*setflTables, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := func() (string, error) {
		for sc.Scan() {
			s := strings.TrimSpace(sc.Text())
			if s != "" {
				return s, nil
			}
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	// Three comment lines.
	for i := 0; i < 3; i++ {
		if _, err := line(); err != nil {
			return nil, fmt.Errorf("eam: setfl header: %w", err)
		}
	}
	elemLine, err := line()
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(elemLine)
	if len(fields) != 2 || fields[0] != "1" {
		return nil, fmt.Errorf("eam: setfl reader supports exactly one element, got %q", elemLine)
	}
	var elem units.Element
	switch fields[1] {
	case "Fe":
		elem = units.Fe
	case "Cu":
		elem = units.Cu
	default:
		return nil, fmt.Errorf("eam: unknown element %q", fields[1])
	}
	dims, err := line()
	if err != nil {
		return nil, err
	}
	df := strings.Fields(dims)
	if len(df) != 5 {
		return nil, fmt.Errorf("eam: malformed dimension line %q", dims)
	}
	nrho, err1 := strconv.Atoi(df[0])
	drho, err2 := strconv.ParseFloat(df[1], 64)
	nr, err3 := strconv.Atoi(df[2])
	dr, err4 := strconv.ParseFloat(df[3], 64)
	cutoff, err5 := strconv.ParseFloat(df[4], 64)
	for _, e := range []error{err1, err2, err3, err4, err5} {
		if e != nil {
			return nil, fmt.Errorf("eam: dimension line %q: %w", dims, e)
		}
	}
	// Each grid parameter must be strictly positive AND finite: NaN slips
	// past a `<= 0` test (every NaN comparison is false) and a NaN or Inf
	// spacing would turn the first Table.Eval into an out-of-range index.
	finitePos := func(v float64) bool {
		return v > 0 && !math.IsInf(v, 1)
	}
	if nrho < 8 || nr < 8 || !finitePos(drho) || !finitePos(dr) || !finitePos(cutoff) {
		return nil, fmt.Errorf("eam: implausible dimensions %q", dims)
	}
	hdr, err := line()
	if err != nil {
		return nil, err
	}
	hf := strings.Fields(hdr)
	if len(hf) != 4 {
		return nil, fmt.Errorf("eam: malformed element header %q", hdr)
	}
	mass, err := strconv.ParseFloat(hf[1], 64)
	if err != nil {
		return nil, err
	}

	// The numeric body: values may be one-per-line or space-separated.
	var values []float64
	need := nrho + 2*nr
	for len(values) < need {
		s, err := line()
		if err != nil {
			return nil, fmt.Errorf("eam: setfl body ended after %d of %d values", len(values), need)
		}
		for _, f := range strings.Fields(s) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("eam: bad value %q: %w", f, err)
			}
			values = append(values, v)
		}
	}
	if len(values) != need {
		return nil, fmt.Errorf("eam: setfl body has %d values, want %d", len(values), need)
	}
	mk := func(vals []float64, dx float64) *Table {
		return &Table{X0: 0, Dx: dx, S: append([]float64(nil), vals...)}
	}
	// The Table type stores n+1 samples for n segments; the setfl grid of N
	// points maps to N-1 segments.
	return &setflTables{
		Element: elem,
		MassAMU: mass,
		Cutoff:  cutoff,
		Embed:   mk(values[:nrho], drho),
		Density: mk(values[nrho:nrho+nr], dr),
		RPhi:    mk(values[nrho+nr:], dr),
	}, nil
}
