package sunway

import (
	"math"
	"testing"
)

func newCPE() *CPE {
	g := NewCoreGroup(DefaultParams)
	return g.CPEs[0]
}

func TestLDMBudgetEnforced(t *testing.T) {
	c := newCPE()
	if err := c.LDMAlloc("tables", 39*1024); err != nil {
		t.Fatalf("39 KB allocation failed: %v", err)
	}
	if err := c.LDMAlloc("buffers", 20*1024); err != nil {
		t.Fatalf("20 KB allocation failed: %v", err)
	}
	// 39+20+10 KB > 64 KB.
	if err := c.LDMAlloc("extra", 10*1024); err == nil {
		t.Fatalf("LDM overflow not detected")
	}
	c.LDMFree("buffers")
	if err := c.LDMAlloc("extra", 10*1024); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
	if got := c.ldmUsed; got != 39*1024+10*1024 {
		t.Errorf("ldmUsed = %d", got)
	}
}

func TestTraditionalTableDoesNotFit(t *testing.T) {
	// The hardware constraint that motivates table compaction: a 273 KB
	// coefficient table cannot be made LDM-resident.
	c := newCPE()
	if err := c.LDMAlloc("traditional-table", 273*1024); err == nil {
		t.Fatalf("traditional table fit in the LDM")
	}
}

func TestDMAAccounting(t *testing.T) {
	c := newCPE()
	c.DMAGet(1000)
	c.DMAPut(500)
	if c.DMAOps != 2 || c.DMABytes != 1500 {
		t.Errorf("ops=%d bytes=%d", c.DMAOps, c.DMABytes)
	}
	want := 2*DefaultParams.DMALatency + 1500/DefaultParams.DMABandwidth
	if got := c.Time(false); math.Abs(got-want) > 1e-15 {
		t.Errorf("time = %v, want %v", got, want)
	}
}

func TestSmallDMALatencyDominated(t *testing.T) {
	// Many small gets (traditional per-neighbor table rows) must cost far
	// more than one bulk get of the same total volume — the effect the
	// compacted table exploits.
	small := newCPE()
	for i := 0; i < 1000; i++ {
		small.DMAGet(8)
	}
	bulk := newCPE()
	bulk.DMAGet(8 * 1000)
	if small.Time(false) < 2.5*bulk.Time(false) {
		t.Errorf("small transfers %.3gs vs bulk %.3gs: latency not dominant",
			small.Time(false), bulk.Time(false))
	}
	// And a bulk preload at the uncontended bandwidth is cheaper still.
	pre := newCPE()
	pre.DMAGetBulk(8 * 1000)
	if pre.Time(false) >= bulk.Time(false) {
		t.Errorf("bulk preload %.3gs not cheaper than contended get %.3gs",
			pre.Time(false), bulk.Time(false))
	}
}

func TestBlockTimeSerialVsDoubleBuffer(t *testing.T) {
	c := newCPE()
	const blocks = 10
	for i := 0; i < blocks; i++ {
		c.BeginBlock()
		c.DMAGet(100000) // ~286 us at the contended bandwidth
		c.Compute(2e6)   // ~300 us
		c.DMAPut(100000) // ~286 us
		c.EndBlock()
	}
	serial := c.Time(false)
	overlapped := c.Time(true)
	if overlapped >= serial {
		t.Errorf("double buffering did not help balanced blocks: %v vs %v", overlapped, serial)
	}
	// With DMA ≈ 2x compute per block, the overlapped time approaches the
	// DMA total; serial is DMA+compute.
	if overlapped < serial/2.5 {
		t.Errorf("overlap too optimistic: %v vs serial %v", overlapped, serial)
	}
}

func TestDoubleBufferLittleGainWhenComputeTiny(t *testing.T) {
	// The paper's observation: with little computation to overlap, double
	// buffering brings no obvious improvement.
	c := newCPE()
	for i := 0; i < 10; i++ {
		c.BeginBlock()
		c.DMAGet(100000)
		c.Compute(100) // negligible
		c.DMAPut(100000)
		c.EndBlock()
	}
	serial := c.Time(false)
	overlapped := c.Time(true)
	gain := (serial - overlapped) / serial
	if gain > 0.05 {
		t.Errorf("double buffer gained %.1f%% with negligible compute", 100*gain)
	}
}

func TestPreloadOutsideBlocksNotOverlapped(t *testing.T) {
	c := newCPE()
	c.DMAGet(40000) // table preload
	pre := c.Time(true)
	if pre <= 0 {
		t.Errorf("preload not charged: %v", pre)
	}
	c.BeginBlock()
	c.Compute(1000)
	c.EndBlock()
	if c.Time(true) <= pre {
		t.Errorf("block time not added on top of preload")
	}
}

func TestBlockPanics(t *testing.T) {
	c := newCPE()
	c.BeginBlock()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("nested BeginBlock did not panic")
			}
		}()
		c.BeginBlock()
	}()
	c.EndBlock()
	defer func() {
		if recover() == nil {
			t.Errorf("unmatched EndBlock did not panic")
		}
	}()
	c.EndBlock()
}

func TestSlowestLane(t *testing.T) {
	g := NewCoreGroup(DefaultParams)
	if len(g.CPEs) != CPEsPerGroup {
		t.Fatalf("core group has %d CPEs", len(g.CPEs))
	}
	for _, c := range g.CPEs {
		c.Compute(float64(c.ID+1) * 1000)
	}
	// The virtual time is that of the slowest CPE (ID 63).
	want := 64000 * DefaultParams.FlopTime
	if worst := g.SlowestLane(false); math.Abs(worst-want) > 1e-12 {
		t.Errorf("worst = %v, want %v", worst, want)
	}
}

func TestResetClearsClocks(t *testing.T) {
	g := NewCoreGroup(DefaultParams)
	c := g.CPEs[0]
	if err := c.LDMAlloc("keep", 1024); err != nil {
		t.Fatal(err)
	}
	c.DMAGet(100)
	c.Compute(100)
	g.ResetAll()
	if c.Time(false) != 0 || c.DMAOps != 0 || c.Flops != 0 {
		t.Errorf("reset incomplete")
	}
	if c.ldmUsed != 1024 {
		t.Errorf("reset dropped LDM allocations")
	}
}

func TestTotalDMA(t *testing.T) {
	g := NewCoreGroup(DefaultParams)
	for _, c := range g.CPEs {
		c.DMAGet(10)
	}
	ops, bytes := g.TotalDMA()
	if ops != 64 || bytes != 640 {
		t.Errorf("ops=%d bytes=%d", ops, bytes)
	}
}

func TestNegativeAllocPanics(t *testing.T) {
	c := newCPE()
	defer func() {
		if recover() == nil {
			t.Errorf("negative allocation did not panic")
		}
	}()
	_ = c.LDMAlloc("bad", -1)
}
