package eam

import (
	"math"
	"testing"

	"mdkmc/internal/rng"
	"mdkmc/internal/units"
)

// blockLengths are the block lengths the exactness tests run: empty, one
// entry, one short of a block, one block, and one entry into a second.
var blockLengths = []int{0, 1, BlockLen - 1, BlockLen, BlockLen + 1}

// speciesPairs are the four ordered Fe/Cu species pairs.
var speciesPairs = [][2]units.Element{
	{units.Fe, units.Fe}, {units.Fe, units.Cu}, {units.Cu, units.Fe}, {units.Cu, units.Cu},
}

// sameBits reports whether two floats are the same float64, bit for bit.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// gridProbes returns x values over a table grid [x0, x0+n·dx]: a dense sweep
// of the range from below it to beyond it, every node exactly (u = 0, and
// u = 1 of the segment below through the clamp at the top), the nodes'
// neighbouring floats, and the given edge values.
func gridProbes(x0, dx float64, n int, edges ...float64) []float64 {
	lo, hi := x0-0.3*(float64(n)*dx), x0+1.2*float64(n)*dx
	const sweep = 3000
	xs := append([]float64(nil), edges...)
	for k := 0; k <= sweep; k++ {
		xs = append(xs, lo+(hi-lo)*float64(k)/sweep)
	}
	for i := 0; i <= n; i++ {
		x := x0 + float64(i)*dx
		xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
	}
	return xs
}

// checkPairBlock evaluates r as pair records through PairDensityRecords,
// an alloy potential's species drawn in turn from sp (a single-species
// potential's records carry none), and compares every record with a
// per-call PairDensity.
func checkPairBlock(t testing.TB, pot *Potential, sp [][2]units.Element, r []float64) {
	t.Helper()
	rf := pot.RecordFloats()
	buf := make([]float64, len(r)*rf)
	a, b := make([]units.Element, len(r)), make([]units.Element, len(r))
	for k, x := range r {
		rec := buf[k*rf : k*rf+rf]
		rec[RecPhi] = x
		a[k], b[k] = pot.Elements[0], pot.Elements[0]
		if rf == RecFloatsAlloy {
			a[k], b[k] = sp[k%len(sp)][0], sp[k%len(sp)][1]
			rec[RecFab], rec[RecDFab] = float64(a[k]), float64(b[k])
		}
	}
	pot.PairDensityRecords(buf)
	for k, x := range r {
		rec := buf[k*rf : k*rf+rf]
		phi, dphi, fab, dfab, fba, dfba := pot.PairDensity(a[k], b[k], x)
		want := []float64{RecPhi: phi, RecFab: fab, RecDFab: dfab, RecDPhi: dphi}
		if rf == RecFloatsAlloy {
			want = append(want, fba, dfba)
		}
		for j := range want {
			if !sameBits(rec[j], want[j]) {
				t.Fatalf("mode=%v %v-%v r=%v (record %d of %d): block %v != per-call %v",
					pot.Mode, a[k], b[k], x, k, len(r), rec, want)
			}
		}
	}
}

// TestPairDensityBlockMatchesPerCall pins the block evaluator,
// PairDensityRecords, to the per-call PairDensity bit for bit: over a dense
// sweep of the table range, r below RMin and at and beyond the cutoff, every
// node exactly, the single-species records of Fe and all four Fe/Cu species
// orders of alloy records (one order per block, and all four interleaved),
// both modes and the block lengths around BlockLen. The MD gather evaluates
// its pairs through the block and the reference kernel and the run-away
// pairs per call, so any difference here would split the kernels.
func TestPairDensityBlockMatchesPerCall(t *testing.T) {
	for _, mode := range []Mode{Analytic, Compacted} {
		for _, pot := range []*Potential{NewFe(mode, 600), NewFeCu(mode, 600)} {
			grid := pot.pair[units.Fe][units.Fe]
			r := gridProbes(grid.X0, grid.Dx, grid.N(), -1, 0, math.Copysign(0, -1), 0.01,
				pot.RMin, pot.Cutoff, math.Nextafter(pot.Cutoff, 0), pot.Cutoff+1e-12, 2*pot.Cutoff, math.Inf(1))
			for _, sp := range speciesPairs {
				checkPairBlock(t, pot, [][2]units.Element{sp}, r)
			}
			checkPairBlock(t, pot, speciesPairs, r)
			for _, n := range blockLengths {
				for off := 0; off+n <= len(r); off += len(r) / 7 {
					checkPairBlock(t, pot, speciesPairs, r[off:off+n])
				}
			}
		}
	}
}

// checkEmbedBlock evaluates rho through EmbedBlock with the species drawn
// in turn from sp, and compares every entry with a per-call Embed.
func checkEmbedBlock(t testing.TB, pot *Potential, sp []units.Element, rho []float64) {
	t.Helper()
	a := make([]units.Element, len(rho))
	for k := range rho {
		a[k] = sp[k%len(sp)]
	}
	v, dv := make([]float64, len(rho)), make([]float64, len(rho))
	pot.EmbedBlock(a, rho, v, dv)
	for k, x := range rho {
		wantV, wantDv := pot.Embed(a[k], x)
		if !sameBits(v[k], wantV) || !sameBits(dv[k], wantDv) {
			t.Fatalf("mode=%v %v ρ=%v (entry %d of %d): block (%v, %v) != per-call (%v, %v)",
				pot.Mode, a[k], x, k, len(rho), v[k], dv[k], wantV, wantDv)
		}
	}
}

// TestEmbedBlockMatchesPerCall pins EmbedBlock to the per-call Embed bit for
// bit: over a dense sweep of the density range, ρ ≤ 0 and ρ ≥ RhoMax (the
// clamped segments), every node exactly, both species alone and
// interleaved, both modes and the block lengths around BlockLen. The MD fill
// round evaluates its sites through the block and its run-away atoms per
// call.
func TestEmbedBlockMatchesPerCall(t *testing.T) {
	for _, mode := range []Mode{Analytic, Compacted} {
		pot := NewFeCu(mode, 600)
		tab := pot.embed[units.Fe]
		rho := gridProbes(tab.X0, tab.Dx, tab.N(), -1, 0, math.Copysign(0, -1),
			pot.RhoMax(), math.Nextafter(pot.RhoMax(), 0), 2*pot.RhoMax())
		for _, sp := range [][]units.Element{{units.Fe}, {units.Cu}, {units.Fe, units.Cu, units.Cu}} {
			checkEmbedBlock(t, pot, sp, rho)
			for _, n := range blockLengths {
				for off := 0; off+n <= len(rho); off += len(rho) / 7 {
					checkEmbedBlock(t, pot, sp, rho[off:off+n])
				}
			}
		}
	}
}

// FuzzPairDensityBlock draws r values, a block length and species and
// requires the block result to equal per-call PairDensity bit for bit. The
// input is a byte string read eight bytes per r (two of them pick the
// record's species); lenSel picks the length, and alloy the potential.
func FuzzPairDensityBlock(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07"), uint8(1), true, true)
	f.Add(make([]byte, 8*(BlockLen+1)), uint8(BlockLen+1), false, true)
	seed := make([]byte, 8*BlockLen)
	for k := range seed {
		seed[k] = byte(k * 37)
	}
	f.Add(seed, uint8(BlockLen), true, false)
	pots := map[[2]bool]*Potential{
		{true, true}: NewFeCu(Compacted, 600), {false, true}: NewFeCu(Analytic, 600),
		{true, false}: NewFe(Compacted, 600), {false, false}: NewFe(Analytic, 600),
	}
	f.Fuzz(func(t *testing.T, data []byte, lenSel uint8, compacted, alloy bool) {
		pot := pots[[2]bool{compacted, alloy}]
		n := min(len(data)/8, int(lenSel))
		r := make([]float64, n)
		sp := make([][2]units.Element, n)
		for k := range r {
			w := data[8*k : 8*k+8]
			// Six bytes place r on [−0.5, Cutoff+0.5) at 2⁻⁴⁸ of the span
			// apart; the other two pick the species.
			var frac uint64
			for _, c := range w[:6] {
				frac = frac<<8 | uint64(c)
			}
			r[k] = -0.5 + (pot.Cutoff+1)*float64(frac)/(1<<48)
			sp[k] = [2]units.Element{units.Element(w[6] & 1), units.Element(w[7] & 1)}
		}
		if n == 0 {
			sp = speciesPairs
		}
		checkPairBlock(t, pot, sp, r)
	})
}

// bccShellSample draws n separations as an MD gather meets them in a bcc
// iron crystal: a lattice vector within the cutoff, uniformly over the
// vectors (so each shell by its multiplicity), plus a uniform ±0.05 Å of
// thermal spread.
func bccShellSample(cutoff float64, n int, seed uint64) []float64 {
	const half = units.LatticeConstantFe / 2
	var shells []float64
	m := int(cutoff/half) + 1
	for i := -m; i <= m; i++ {
		for j := -m; j <= m; j++ {
			for k := -m; k <= m; k++ {
				if (i^j)&1 != 0 || (j^k)&1 != 0 || i == 0 && j == 0 && k == 0 {
					continue
				}
				if d := half * math.Sqrt(float64(i*i+j*j+k*k)); d < cutoff {
					shells = append(shells, d)
				}
			}
		}
	}
	src := rng.New(seed)
	r := make([]float64, n)
	for k := range r {
		r[k] = shells[int(src.Uint64()%uint64(len(shells)))] + 0.1*(src.Float64()-0.5)
	}
	return r
}

// BenchmarkPairDensity contrasts the per-call PairDensity with the block
// evaluator over a shell-distributed sample of iron separations, in ns per
// pair. The two produce the same bits (TestPairDensityBlockMatchesPerCall).
// The block case's time includes parking each r in its record, as the MD
// gather does.
func BenchmarkPairDensity(b *testing.B) {
	pot := NewFe(Compacted, TablePoints)
	r := bccShellSample(pot.Cutoff, 4096, 1)
	recs := make([]float64, RecFloats*len(r))
	b.Run("per-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, x := range r {
				rec := recs[k*RecFloats : k*RecFloats+RecFloats]
				rec[RecPhi], rec[RecDPhi], rec[RecFab], rec[RecDFab], _, _ = pot.PairDensity(units.Fe, units.Fe, x)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(r)), "ns/pair")
	})
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, x := range r {
				recs[k*RecFloats+RecPhi] = x
			}
			pot.PairDensityRecords(recs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(r)), "ns/pair")
	})
}
