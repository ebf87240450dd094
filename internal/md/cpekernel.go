package md

import (
	"fmt"

	"mdkmc/internal/eam"
	"mdkmc/internal/sunway"
)

// KernelVariant selects which of the paper's §2.1.2 optimizations the CPE
// force kernel applies — the four bars of Figure 9.
type KernelVariant int

// Kernel variants, in the paper's cumulative order.
const (
	// VariantTraditional keeps the 5000x7 coefficient tables in main memory
	// (they exceed the 64 KB LDM) and fetches rows by DMA per neighbor.
	VariantTraditional KernelVariant = iota
	// VariantCompacted makes the 5000-value compacted tables LDM-resident
	// and reconstructs coefficients on the fly.
	VariantCompacted
	// VariantCompactedReuse additionally keeps the trailing ghost layers of
	// each block in the LDM for the next block.
	VariantCompactedReuse
	// VariantFull additionally double-buffers block transfers against
	// compute.
	VariantFull
)

func (v KernelVariant) String() string {
	switch v {
	case VariantTraditional:
		return "traditional-table"
	case VariantCompacted:
		return "compacted-table"
	case VariantCompactedReuse:
		return "compacted+reuse"
	case VariantFull:
		return "compacted+reuse+double-buffer"
	}
	return fmt.Sprintf("KernelVariant(%d)", int(v))
}

// Data-movement model constants (bytes per lattice site unless noted); see
// DESIGN.md §2 for the calibration discussion.
const (
	// Software-cache emulation (the rejected LDM configuration).
	cacheTagFlops     = 6    // tag check per access
	cacheLineBytes    = 64   // fetched per miss
	cacheMissTables   = 0.05 // interpolation tables are hot
	cacheMissStream   = 0.30 // streaming atom data thrashes the cache
	accessesPerSiteIn = 12   // field loads per site and pass

	ldmPerSite      = 96 // LDM footprint of one site during a block
	streamInDensity = 64 // R + type + bookkeeping, density pass
	streamOutDens   = 8  // ρ write-back
	streamOutForce  = 48
	streamInPair    = 56       // R, ρ, F′, type and the row index, pair round
	streamInSum     = 32       // F(ρ), row and reverse-index entries, force reduce
	haloFresh       = 16       // extra stream per site for block halos
	haloReused      = 8        // halo stream when trailing layers are reused
	ldmFixed        = 4 * 1024 // stack, control blocks, row cache
	rowBytes        = 56       // one 7-column float64 coefficient row
	// rowMissRate models the fraction of per-neighbor row fetches that miss
	// the small LDM row cache in the traditional kernel (consecutive
	// neighbors often share a spline segment).
	rowMissRate = 0.09
	// Arithmetic per accepted pair (flop-equivalents). The reference
	// kernel's force side costs 7 (reference_test.go); the optimized kernel
	// splits it into the vector the pair round forms once per pair and the
	// sum each side's reduce adds.
	flopsPairDensity = 3
	flopsPairVector  = 6 // d, r², √, the scalar, the division, v = k·d
	flopsPairSum     = 2 // ±v and ½φ
	// Extra reconstruction arithmetic per table lookup in compacted mode
	// (the paper's interpolation formula evaluated on the fly).
	flopsReconstruct = 2
)

// AlloyTableStrategy selects how an alloy's additional interpolation tables
// — which together exceed the 64 KB LDM — are served (paper §2.1.2).
type AlloyTableStrategy int

// Alloy table strategies.
const (
	// AlloyDominantResident keeps only the highest-content element's table
	// in the LDM and fetches minority-pair entries from main memory — the
	// strategy the paper adopts.
	AlloyDominantResident AlloyTableStrategy = iota
	// AlloyDistributedTables spreads the tables across neighbor CPEs' local
	// stores and fetches entries by two-sided register communication — the
	// alternative the paper describes and rejects as "very difficult to
	// describe these irregular communications".
	AlloyDistributedTables
)

func (a AlloyTableStrategy) String() string {
	if a == AlloyDistributedTables {
		return "distributed-register"
	}
	return "dominant-resident"
}

// CPEKernel is the cost model of running the force computation on a
// simulated Sunway core group. It executes nothing: ForcePool runs the
// physics, and chunk i of every round — the slab CPE i would own — charges
// CPE i's virtual clock with the variant's data movement and arithmetic. The
// charges are a function of the chunk's site and operation counts alone, so
// StepTime and the DMA counters are identical for every host worker count.
type CPEKernel struct {
	FF      *ForceField
	CG      *sunway.CoreGroup
	Variant KernelVariant
	// Alloy selects the minority-table strategy when the potential has
	// more than one species; ignored for pure iron.
	Alloy AlloyTableStrategy
	// SoftwareCache emulates the LDM's software-cache configuration instead
	// of the user-controlled buffer: every data access pays a tag check and
	// misses fetch whole lines by DMA, with no double-buffer pipeline. The
	// paper uses the buffer mode "since it generally obtains better
	// performance"; this flag exists to demonstrate why.
	SoftwareCache bool

	// StepTime accumulates the virtual kernel time (seconds) charged since
	// the kernel was built: one density pass plus one force pass per MD step.
	StepTime float64
}

// NewCPEKernel builds a kernel over the given force field.
func NewCPEKernel(ff *ForceField, variant KernelVariant) *CPEKernel {
	return &CPEKernel{FF: ff, CG: sunway.NewCoreGroup(sunway.DefaultParams), Variant: variant}
}

func (k *CPEKernel) compacted() bool { return k.Variant != VariantTraditional }
func (k *CPEKernel) reuse() bool {
	return k.Variant == VariantCompactedReuse || k.Variant == VariantFull
}
func (k *CPEKernel) doubleBuffer() bool { return k.Variant == VariantFull }

// tableResident tries to make the variant's interpolation table LDM-
// resident and returns (allocation label, resident bytes, whether per-
// neighbor row fetches are needed). At the paper's 5000-point resolution the
// traditional layout (273 KB) never fits, which is what forces the row
// fetches; a reduced-resolution table that happens to fit is kept resident
// honestly.
func (k *CPEKernel) tableResident(c *sunway.CPE, pot *eam.Potential) (string, int, bool) {
	compactedBytes, traditionalBytes := pot.TableBytes()
	if !k.compacted() {
		if err := c.LDMAlloc("traditional-table", traditionalBytes); err != nil {
			return "", 0, true // fetch rows per neighbor, as on hardware
		}
		return "traditional-table", traditionalBytes, false
	}
	if err := c.LDMAlloc("compacted-table", compactedBytes); err != nil {
		//mdvet:ignore errpanic LDM sizing invariant of the modeled accelerator: the compacted table fits by construction (DESIGN.md §13)
		panic(fmt.Sprintf("md: compacted table does not fit the LDM: %v", err))
	}
	return "compacted-table", compactedBytes, false
}

// pass describes the per-site streaming of one kernel round.
type passSpec struct {
	tables   int // compacted tables preloaded over the round
	inBytes  int // streamed in per site
	outBytes int // streamed out per site
	// perPairIn/perPairOut charge the optimized kernel's pair-stream
	// traffic: bytes read/written from the main-memory stream per accepted
	// pair (the stream is far too large for the LDM, so it moves by DMA
	// like the atom fields).
	perPairIn  int
	perPairOut int
	slotsOut   int // plus this many whole pair-stream slots out per pair
	flopsPer   int // arithmetic per accepted pair or formed vector
}

// pairBytes returns the pair-stream bytes the round moves per pair, in and
// out, for the kernel's slot size.
func (k *CPEKernel) pairBytes(spec passSpec) (in, out int) {
	return spec.perPairIn, spec.perPairOut + spec.slotsOut*k.FF.slotFloats*8
}

// pairWork returns the pairs a round's cost is charged for: the pairs it
// accepted, or the force vectors the pair round formed.
func pairWork(st OpStats) float64 { return float64(st.Pairs + st.Vectors) }

// chargeSoftwareCache models the same pass under the software-emulated
// cache: no explicit blocks, no overlap; every access pays the tag check
// and the miss fraction fetches cache lines from main memory.
func (k *CPEKernel) chargeSoftwareCache(c *sunway.CPE, spec passSpec, sites int, st OpStats) {
	// Pair-stream traffic (optimized kernel) goes through the emulated
	// cache too, one float64 access per streamed value.
	in, out := k.pairBytes(spec)
	pairAccesses := pairWork(st) * float64(in+out) / 8
	accesses := float64(sites*accessesPerSiteIn) + float64(st.Lookups) + pairAccesses
	c.Compute(accesses * cacheTagFlops)
	tableMisses := float64(st.Lookups) * cacheMissTables
	streamMisses := (float64(sites*accessesPerSiteIn) + pairAccesses) * cacheMissStream
	c.DMASmallN(int(tableMisses+streamMisses), cacheLineBytes)
	// The kernel arithmetic itself is unchanged.
	c.Compute(pairWork(st)*float64(spec.flopsPer) +
		float64(st.Lookups)*flopsReconstruct)
	// Write-backs of the outputs.
	c.DMAPut(sites * spec.outBytes)
}

// charge applies the variant's cost model to one CPE that processed `sites`
// lattice sites producing the given operation counts.
func (k *CPEKernel) charge(c *sunway.CPE, spec passSpec, sites int, st OpStats) {
	if k.SoftwareCache {
		k.chargeSoftwareCache(c, spec, sites, st)
		return
	}
	pot := k.FF.Pot
	tableLabel, tableBytes, fetchRows := k.tableResident(c, pot)
	defer func() {
		if tableLabel != "" {
			c.LDMFree(tableLabel)
		}
	}()
	if tableBytes > 0 {
		// Preload the resident table(s) once per pass phase.
		for i := 0; i < spec.tables; i++ {
			c.DMAGetBulk(tableBytes)
		}
	}

	// Block geometry from the remaining LDM budget.
	budget := sunway.LDMBytes - tableBytes - ldmFixed
	if k.doubleBuffer() {
		budget /= 2
	}
	blockSites := budget / ldmPerSite
	if blockSites < 1 {
		blockSites = 1
	}
	if err := c.LDMAlloc("block-buffers", blockSites*ldmPerSite); err != nil {
		//mdvet:ignore errpanic LDM sizing invariant of the modeled accelerator: the block budget is derived from the remaining capacity
		panic(fmt.Sprintf("md: block buffer allocation failed: %v", err))
	}
	defer c.LDMFree("block-buffers")

	remaining := sites
	pairIn, pairOut := k.pairBytes(spec)
	pairsPerSite := 0.0
	lookupsPerSite := 0.0
	minorityPerSite := 0.0
	if sites > 0 {
		pairsPerSite = pairWork(st) / float64(sites)
		lookupsPerSite = float64(st.Lookups) / float64(sites)
		if len(pot.Elements) > 1 && k.compacted() {
			minorityPerSite = float64(st.MinorityLookups) / float64(sites)
		}
	}
	first := true
	for remaining > 0 {
		n := blockSites
		if n > remaining {
			n = remaining
		}
		remaining -= n
		halo := haloFresh
		if k.reuse() && !first {
			halo = haloReused
		}
		first = false
		c.BeginBlock()
		c.DMAGet(n*(spec.inBytes+halo) + int(float64(n)*pairsPerSite)*pairIn)
		if fetchRows {
			// Per-neighbor coefficient-row fetches that miss the row cache.
			misses := int(float64(n) * lookupsPerSite * rowMissRate)
			c.DMASmallN(misses, rowBytes)
		}
		if minorityPerSite > 0 {
			m := int(float64(n) * minorityPerSite)
			switch k.Alloy {
			case AlloyDistributedTables:
				// Every minority lookup crosses the CPE mesh.
				c.RegTransferN(m)
			default:
				// Dominant-resident: minority entries come from main memory
				// through the small row cache (five-sample stencil).
				c.DMASmallN(int(float64(m)*rowMissRate), 5*8)
			}
		}
		flops := float64(n) * pairsPerSite * float64(spec.flopsPer)
		if k.compacted() {
			flops += float64(n) * lookupsPerSite * flopsReconstruct
		}
		c.Compute(flops)
		c.DMAPut(n*spec.outBytes + int(float64(n)*pairsPerSite)*pairOut)
		c.EndBlock()
	}
}

// The three hooks ForcePool.run calls around a round. They are no-ops on a
// nil kernel, so the pool charges unconditionally. A round is one kernel
// launch: clocks and counters restart (TotalDMA reads "the last round"),
// each chunk charges its own CPE — distinct chunks touch distinct CPEs, so
// the pool's workers charge concurrently — and the barrier that ends the
// round costs the group its slowest lane.

func (k *CPEKernel) beginRound() {
	if k != nil {
		k.CG.ResetAll()
	}
}

func (k *CPEKernel) chargeChunk(i int, spec passSpec, sites int, st OpStats) {
	if k != nil {
		k.charge(k.CG.CPEs[i], spec, sites, st)
	}
}

func (k *CPEKernel) endRound() {
	if k != nil {
		k.StepTime += k.CG.SlowestLane(k.doubleBuffer())
	}
}
