// Package sunway simulates the SW26010 many-core processor of the Sunway
// TaihuLight at the level of detail the paper's optimizations act on: core
// groups of one management processing element (MPE, "master core") and 64
// computing processing elements (CPE, "slave cores"), each CPE owning a
// 64 KB local store (LDM) fed by an explicit DMA engine.
//
// The package is a pure cost model and executes nothing: the caller runs a
// kernel's real work wherever it likes (internal/md runs each CPE's slab as
// one chunk of its ForcePool) and charges the matching CPE afterwards. Every
// LDM allocation is checked against the 64 KB budget (a kernel that tries to
// keep the traditional 273 KB interpolation table resident fails exactly as
// it would on hardware), and every DMA transfer and unit of compute advances
// that CPE's virtual clock. Double buffering is modeled as the overlap of the
// per-block DMA clock with the per-block compute clock (paper Figure 6). A
// CPE's charges depend only on what it is charged with, so distinct CPEs may
// be charged from distinct goroutines and the clocks cannot see the host.
//
// The per-operation constants in Params are calibrated so that the
// *measured ratios* of the paper's Figure 9 ablation emerge from honestly
// counted operation totals; DESIGN.md §2 records this substitution.
package sunway

import "fmt"

// Hardware constants of one SW26010 core group.
const (
	// CPEsPerGroup is the number of slave cores in a core group's 8x8 mesh.
	CPEsPerGroup = 64
	// LDMBytes is each slave core's local store capacity.
	LDMBytes = 64 * 1024
)

// Params is the virtual-time cost model.
type Params struct {
	// DMALatency is the fixed virtual cost of issuing one DMA operation
	// (seconds). Small strided gets — e.g. fetching single interpolation
	// table rows per neighbor — are dominated by this term.
	DMALatency float64
	// DMABandwidth is the streaming bandwidth of one CPE's DMA channel
	// when all 64 CPEs stream concurrently (bytes/second); the SW26010's
	// ~22.6 GB/s per core group divides across the cluster.
	DMABandwidth float64
	// DMABulkBandwidth is the bandwidth seen by one-time bulk preloads
	// (e.g. interpolation tables) issued before the contended streaming
	// loop starts.
	DMABulkBandwidth float64
	// FlopTime is the virtual cost of one floating-point operation on a CPE
	// (seconds), at the effective vectorized rate of the force kernel.
	FlopTime float64
	// RegLatency is the virtual cost of one register-communication transfer
	// between CPEs of the same row or column of the 8x8 mesh (seconds).
	// The raw hardware transfer is ~10 cycles; reaching an arbitrary CPE
	// takes up to two hops (row then column).
	RegLatency float64
	// RegSoftwareFlops is the per-transfer software overhead of describing
	// an irregular two-sided register exchange (matching sends and
	// receives, packing the request/response) — the cost the paper's
	// conclusion complains about ("the register communication interfaces
	// work similarly to the MPI two-sided communication, which makes them
	// difficult to describe irregular data transfers").
	RegSoftwareFlops float64
}

// DefaultParams is calibrated so that the measured ratios of the paper's
// Figure 9 ablation emerge from honestly counted operations (DESIGN.md §2):
// a streaming-dominated kernel in which table compaction removes the
// per-neighbor row fetches, ghost reuse trims a few percent of the stream,
// and double buffering has little computation to overlap.
var DefaultParams = Params{
	DMALatency:       45e-9,   // effective pipelined descriptor cost
	DMABandwidth:     0.35e9,  // 22.6 GB/s per core group / 64 CPEs
	DMABulkBandwidth: 8.0e9,   // uncontended preload
	FlopTime:         0.15e-9, // ~6.7 GFlop/s vectorized effective
	RegLatency:       7e-9,    // ~10 cycles at 1.45 GHz
	RegSoftwareFlops: 40,      // request/response matching per transfer
}

// blockCost is the virtual cost of one double-bufferable block of work.
type blockCost struct {
	get, compute, put float64
}

// CPE is one slave core: an LDM allocator plus virtual clocks.
type CPE struct {
	ID     int
	params *Params

	ldmUsed int
	allocs  map[string]int

	// Totals outside block structure (e.g. one-time table loads).
	preGet float64

	blocks  []blockCost
	cur     blockCost
	inBlock bool

	// Operation counters for reporting.
	DMAOps   int64
	DMABytes int64
	Flops    float64
}

// LDMAlloc reserves bytes of local store under the given label. It returns
// an error when the allocation would exceed the 64 KB capacity — the
// hardware constraint that forces the paper's table compaction.
func (c *CPE) LDMAlloc(label string, bytes int) error {
	if bytes < 0 {
		panic("sunway: negative LDM allocation")
	}
	if c.ldmUsed+bytes > LDMBytes {
		return fmt.Errorf("sunway: LDM overflow: %q needs %d B, %d of %d in use",
			label, bytes, c.ldmUsed, LDMBytes)
	}
	c.ldmUsed += bytes
	c.allocs[label] += bytes
	return nil
}

// LDMFree releases a labeled allocation.
func (c *CPE) LDMFree(label string) {
	c.ldmUsed -= c.allocs[label]
	delete(c.allocs, label)
}

// dmaCost returns the virtual time of one DMA op of the given size.
func (c *CPE) dmaCost(bytes int) float64 {
	return c.params.DMALatency + float64(bytes)/c.params.DMABandwidth
}

// DMAGetBulk charges a one-time bulk preload (e.g. loading the compacted
// interpolation tables) at the uncontended bandwidth; always attributed to
// the pre-loop cost, never overlapped.
func (c *CPE) DMAGetBulk(bytes int) {
	c.DMAOps++
	c.DMABytes += int64(bytes)
	c.preGet += c.params.DMALatency + float64(bytes)/c.params.DMABulkBandwidth
}

// DMAGet charges a main-memory-to-LDM transfer. Inside a block it is
// attributed to the block's input phase (overlappable by double buffering);
// outside, to the one-time preload cost.
func (c *CPE) DMAGet(bytes int) {
	t := c.dmaCost(bytes)
	c.DMAOps++
	c.DMABytes += int64(bytes)
	if c.inBlock {
		c.cur.get += t
	} else {
		c.preGet += t
	}
}

// DMAPut charges an LDM-to-main-memory transfer.
func (c *CPE) DMAPut(bytes int) {
	t := c.dmaCost(bytes)
	c.DMAOps++
	c.DMABytes += int64(bytes)
	if c.inBlock {
		c.cur.put += t
	} else {
		c.preGet += t
	}
}

// DMASmallN charges n small DMA operations of bytesEach bytes in one call
// (used to aggregate per-neighbor interpolation-row fetches).
func (c *CPE) DMASmallN(n int, bytesEach int) {
	if n <= 0 {
		return
	}
	t := float64(n) * c.dmaCost(bytesEach)
	c.DMAOps += int64(n)
	c.DMABytes += int64(n * bytesEach)
	if c.inBlock {
		c.cur.get += t
	} else {
		c.preGet += t
	}
}

// RegTransferN charges n two-sided register-communication exchanges of up
// to 32 bytes each: two mesh hops (row, column) plus the per-transfer
// software overhead of the two-sided matching. Register traffic occupies
// the CPE pipeline, so it is charged to the compute clock — it cannot be
// hidden by double buffering the way DMA can.
func (c *CPE) RegTransferN(n int) {
	if n <= 0 {
		return
	}
	t := float64(n) * (2*c.params.RegLatency + c.params.RegSoftwareFlops*c.params.FlopTime)
	c.Flops += float64(n) * c.params.RegSoftwareFlops
	if c.inBlock {
		c.cur.compute += t
	} else {
		c.preGet += t
	}
}

// Compute charges flops of kernel arithmetic.
func (c *CPE) Compute(flops float64) {
	c.Flops += flops
	t := flops * c.params.FlopTime
	if c.inBlock {
		c.cur.compute += t
	} else {
		c.preGet += t
	}
}

// BeginBlock opens a double-bufferable block (one slab sub-block of atoms in
// the MD kernel).
func (c *CPE) BeginBlock() {
	if c.inBlock {
		panic("sunway: nested BeginBlock")
	}
	c.inBlock = true
	c.cur = blockCost{}
}

// EndBlock closes the current block.
func (c *CPE) EndBlock() {
	if !c.inBlock {
		panic("sunway: EndBlock without BeginBlock")
	}
	c.inBlock = false
	c.blocks = append(c.blocks, c.cur)
}

// Time returns the CPE's virtual execution time. Without double buffering
// every phase serializes. With double buffering the DMA engine and the
// compute pipeline are modeled as two resources working concurrently across
// blocks: total ≈ first fill + max(total DMA, total compute) + last drain
// (the schedule of paper Figure 6).
func (c *CPE) Time(doubleBuffer bool) float64 {
	var dma, comp, serial float64
	for _, b := range c.blocks {
		dma += b.get + b.put
		comp += b.compute
		serial += b.get + b.compute + b.put
	}
	if !doubleBuffer || len(c.blocks) == 0 {
		return c.preGet + serial
	}
	fill := c.blocks[0].get
	drain := c.blocks[len(c.blocks)-1].put
	overlapped := fill + maxf(dma-fill-drain, comp) + drain
	return c.preGet + overlapped
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Reset clears clocks, counters and blocks but keeps LDM allocations.
func (c *CPE) Reset() {
	c.preGet = 0
	c.blocks = c.blocks[:0]
	c.cur = blockCost{}
	c.inBlock = false
	c.DMAOps = 0
	c.DMABytes = 0
	c.Flops = 0
}

// CoreGroup is one MPE plus its 64-CPE cluster.
type CoreGroup struct {
	Params Params
	CPEs   []*CPE
}

// NewCoreGroup creates a core group with the given cost model.
func NewCoreGroup(p Params) *CoreGroup {
	g := &CoreGroup{Params: p, CPEs: make([]*CPE, CPEsPerGroup)}
	for i := range g.CPEs {
		g.CPEs[i] = &CPE{ID: i, params: &g.Params, allocs: make(map[string]int)}
	}
	return g
}

// SlowestLane returns the virtual time of the slowest CPE under the given
// buffering regime: what one kernel launch costs the core group, because the
// barrier that ends it waits for every lane.
func (g *CoreGroup) SlowestLane(doubleBuffer bool) float64 {
	var worst float64
	for _, c := range g.CPEs {
		worst = maxf(worst, c.Time(doubleBuffer))
	}
	return worst
}

// ResetAll resets every CPE's clocks and counters.
func (g *CoreGroup) ResetAll() {
	for _, c := range g.CPEs {
		c.Reset()
	}
}

// TotalDMA sums DMA operation and byte counts over the cluster.
func (g *CoreGroup) TotalDMA() (ops, bytes int64) {
	for _, c := range g.CPEs {
		ops += c.DMAOps
		bytes += c.DMABytes
	}
	return
}
