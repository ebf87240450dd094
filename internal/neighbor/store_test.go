package neighbor

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"mdkmc/internal/lattice"
	"mdkmc/internal/rng"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

const a0 = 2.855

// fullBox returns a single-rank box covering the whole lattice with a ghost
// halo wide enough for tab.
func fullBox(l *lattice.Lattice, tab *lattice.OffsetTable) *lattice.Box {
	g, err := lattice.NewGrid(l, 1, 1, 1)
	if err != nil {
		panic(err)
	}
	return g.Box(0, tab.MaxCellReach())
}

func newTestStore(n int, cutoff float64) (*Store, *lattice.Lattice) {
	l := lattice.New(n, n, n, a0)
	tab := l.NeighborOffsets(cutoff)
	return NewStore(fullBox(l, tab), tab, units.Fe), l
}

// numRunaways counts live pool entries.
func numRunaways(s *Store) int {
	n := 0
	for i := range s.pool {
		if s.pool[i].ID > 0 {
			n++
		}
	}
	return n
}

func TestStoreInitPerfectLattice(t *testing.T) {
	s, l := newTestStore(4, 1.01*a0)
	// Owned sites carry unique IDs equal to global index + 1.
	seen := map[int64]bool{}
	s.Box.EachOwned(func(c lattice.Coord, local int) {
		id := s.ID[local]
		if id != int64(l.Index(c))+1 {
			t.Fatalf("site %+v has ID %d", c, id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
		if vec.Dist(s.R[local], l.Position(c)) > 1e-12 {
			t.Fatalf("site %+v not at lattice position", c)
		}
	})
	if len(seen) != l.NumSites() {
		t.Fatalf("owned %d sites, want %d", len(seen), l.NumSites())
	}
}

func TestGhostEntriesMatchPeriodicImages(t *testing.T) {
	s, l := newTestStore(4, 1.01*a0)
	b := s.Box
	// A ghost site's ID equals that of its wrapped-global counterpart.
	ghost := lattice.Coord{X: -1, Y: 0, Z: 0, B: 0}
	wrapped := l.Wrap(ghost)
	if got, want := s.ID[b.LocalIndex(ghost)], int64(l.Index(wrapped))+1; got != want {
		t.Errorf("ghost ID = %d, want %d", got, want)
	}
}

func TestDeltasMatchOffsetApply(t *testing.T) {
	s, _ := newTestStore(5, 1.97*a0)
	b := s.Box
	b.EachOwned(func(c lattice.Coord, local int) {
		offs := s.Tab.PerBase[c.B]
		deltas := s.Deltas(c.B)
		for k, o := range offs {
			want := b.LocalIndex(o.Apply(c))
			if got := local + int(deltas[k]); got != want {
				t.Fatalf("site %+v offset %d: delta gives %d, want %d", c, k, got, want)
			}
		}
	})
}

func TestVacancyLifecycle(t *testing.T) {
	s, l := newTestStore(3, 1.01*a0)
	c := lattice.Coord{X: 1, Y: 1, Z: 1, B: 0}
	local := s.Box.LocalIndex(c)
	orig := s.MakeVacancy(local)
	if !s.IsVacancy(local) {
		t.Fatalf("site not a vacancy after MakeVacancy")
	}
	if orig.ID != int64(l.Index(c))+1 {
		t.Errorf("displaced atom carried ID %d", orig.ID)
	}
	// Vacancy entry records the lattice-point coordinates.
	if vec.Dist(s.R[local], l.Position(c)) > 1e-12 {
		t.Errorf("vacancy does not record lattice position")
	}
	if s.CountVacancies() != 1 {
		t.Errorf("CountVacancies = %d", s.CountVacancies())
	}
	// Refill.
	s.FillSite(local, orig)
	if s.IsVacancy(local) {
		t.Errorf("site still a vacancy after FillSite")
	}
	if s.CountVacancies() != 0 {
		t.Errorf("CountVacancies = %d after refill", s.CountVacancies())
	}
}

func TestRunawayChains(t *testing.T) {
	s, _ := newTestStore(3, 1.01*a0)
	anchor := s.Box.LocalIndex(lattice.Coord{X: 1, Y: 1, Z: 1, B: 1})
	r1 := s.AddRunaway(anchor, Runaway{ID: 101, R: vec.V{X: 1}})
	r2 := s.AddRunaway(anchor, Runaway{ID: 102, R: vec.V{X: 2}})
	r3 := s.AddRunaway(anchor, Runaway{ID: 103, R: vec.V{X: 3}})

	var ids []int64
	s.EachRunaway(anchor, func(_ int32, a *Runaway) { ids = append(ids, a.ID) })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) != 3 || ids[0] != 101 || ids[2] != 103 {
		t.Fatalf("chain contents = %v", ids)
	}
	if numRunaways(s) != 3 {
		t.Fatalf("numRunaways = %d", numRunaways(s))
	}

	// Remove the middle entry; chain must stay consistent.
	got := s.RemoveRunaway(anchor, r2)
	if got.ID != 102 {
		t.Fatalf("removed wrong atom: %d", got.ID)
	}
	ids = ids[:0]
	s.EachRunaway(anchor, func(_ int32, a *Runaway) { ids = append(ids, a.ID) })
	if len(ids) != 2 {
		t.Fatalf("chain has %d entries after removal", len(ids))
	}
	// The freed slot is reused by the next insertion (free list).
	r4 := s.AddRunaway(anchor, Runaway{ID: 104})
	if r4 != r2 {
		t.Errorf("free slot %d not reused, got %d", r2, r4)
	}
	_ = r1
	_ = r3
}

func TestRemoveRunawayPanicsOnWrongAnchor(t *testing.T) {
	s, _ := newTestStore(3, 1.01*a0)
	a1 := s.Box.LocalIndex(lattice.Coord{X: 0, Y: 0, Z: 0, B: 0})
	a2 := s.Box.LocalIndex(lattice.Coord{X: 1, Y: 0, Z: 0, B: 0})
	ref := s.AddRunaway(a1, Runaway{ID: 7})
	defer func() {
		if recover() == nil {
			t.Errorf("RemoveRunaway with wrong anchor did not panic")
		}
	}()
	s.RemoveRunaway(a2, ref)
}

func TestClearRunaways(t *testing.T) {
	s, _ := newTestStore(3, 1.01*a0)
	anchor := 0
	for i := 0; i < 5; i++ {
		s.AddRunaway(anchor, Runaway{ID: int64(i + 1)})
	}
	s.ClearRunaways(anchor)
	if s.Head[anchor] != NoRunaway {
		t.Errorf("head not cleared")
	}
	if numRunaways(s) != 0 {
		t.Errorf("numRunaways = %d after clear", numRunaways(s))
	}
	// All five slots are reusable.
	for i := 0; i < 5; i++ {
		s.AddRunaway(anchor, Runaway{ID: int64(10 + i)})
	}
	if len(s.pool) != 5 {
		t.Errorf("pool grew to %d, want 5 (free-list reuse)", len(s.pool))
	}
}

func TestStorePanicsOnThinGhost(t *testing.T) {
	l := lattice.New(6, 6, 6, a0)
	tab := l.NeighborOffsets(1.97 * a0) // reach 2
	g, _ := lattice.NewGrid(l, 1, 1, 1)
	box := g.Box(0, 1) // too thin
	defer func() {
		if recover() == nil {
			t.Errorf("NewStore with thin ghost did not panic")
		}
	}()
	NewStore(box, tab, units.Fe)
}

func TestStorePanicsOnAsymmetricTable(t *testing.T) {
	l := lattice.New(4, 4, 4, a0)
	tab := l.NeighborOffsets(1.97 * a0)
	// Drop basis 0's last offset: its reverse in basis 1 loses its partner.
	tab.PerBase[0] = tab.PerBase[0][:len(tab.PerBase[0])-1]
	defer func() {
		if recover() == nil {
			t.Errorf("NewStore with an asymmetric offset table did not panic")
		}
	}()
	NewStore(fullBox(l, tab), tab, units.Fe)
}

func TestStoreMemoryBytesCoversEveryArray(t *testing.T) {
	// Every per-site array is charged its element size, and the run-away
	// pool its entry size per slot of capacity: an array left out of the
	// count, or a pool entry charged short, fails here.
	s, _ := newTestStore(4, 1.97*a0)
	n := s.Box.NumLocalSites()
	perSite := 0
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() == n {
			perSite += int(f.Type().Elem().Size())
		}
	}
	deltas := 4 * (len(s.Deltas(0)) + len(s.Deltas(1)))
	base := perSite*n + deltas
	if got := s.MemoryBytes(); got != base {
		t.Fatalf("MemoryBytes() = %d on an empty pool, want %d (%d B per site × %d sites + %d B of deltas)",
			got, base, perSite, n, deltas)
	}
	entry := int(unsafe.Sizeof(Runaway{}))
	for i := 0; i < 40; i++ {
		s.AddRunaway(i, Runaway{ID: int64(i + 1)})
		if got, want := s.MemoryBytes()-base, cap(s.pool)*entry; got != want {
			t.Fatalf("after %d run-aways the pool is charged %d B, want cap %d × %d B = %d",
				i+1, got, cap(s.pool), entry, want)
		}
	}
}

// bruteNear counts, by coordinates, the chain-bearing sites among local and
// the sites its wide offsets reach inside local storage.
func bruteNear(s *Store, local int) int {
	c := s.Box.GlobalCoord(local)
	n := 0
	if s.Head[local] != NoRunaway {
		n++
	}
	for _, o := range s.Tab.PerBase[c.B] {
		if nc := o.Apply(c); s.Box.InLocal(nc) && s.Head[s.Box.LocalIndex(nc)] != NoRunaway {
			n++
		}
	}
	return n
}

func TestNearIndexMatchesBruteForce(t *testing.T) {
	// A seeded random sequence of chain insertions, removals and clears on
	// owned sites and on the outermost ghost layer (where most wide offsets
	// leave local storage) of one rank of a 2×1×1 grid, with MD's wide
	// radius: after every operation, and after restoring snapshots that
	// have chains, the index equals a direct probe of Head.
	l := lattice.New(6, 4, 4, a0)
	tab := l.NeighborOffsets(6.77) // cutoff 3.57 Å + MD's 3.2 Å wide margin
	g, err := lattice.NewGrid(l, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	box := g.Box(0, tab.MaxCellReach())
	s := NewStore(box, tab, units.Fe)
	var sites []int
	for local := 0; local < box.NumLocalSites(); local++ {
		c := box.GlobalCoord(local)
		outer := false
		for d, v := range [3]int32{c.X, c.Y, c.Z} {
			lv := int(v) - box.Lo[d] + box.Ghost
			outer = outer || lv == 0 || lv == box.Ext(d)-1
		}
		if box.Owns(c) || outer {
			sites = append(sites, local)
		}
	}
	check := func(st *Store, what string) {
		t.Helper()
		for local := range st.near {
			if got, want := int(st.near[local]), bruteNear(st, local); got != want {
				t.Fatalf("%s: site %d (%+v) near = %d, brute force %d",
					what, local, box.GlobalCoord(local), got, want)
			}
		}
	}
	type entry struct {
		site int
		ref  int32
	}
	var live []entry
	r := rng.New(29)
	op := func(i int) string {
		switch k := r.Intn(5); {
		case k < 3 || len(live) == 0:
			site := sites[r.Intn(len(sites))]
			if len(live) > 0 && k == 0 {
				site = live[r.Intn(len(live))].site // lengthen a chain
			}
			live = append(live, entry{site, s.AddRunaway(site, Runaway{ID: int64(i + 1)})})
			return "AddRunaway"
		case k == 3:
			j := r.Intn(len(live))
			s.RemoveRunaway(live[j].site, live[j].ref)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			return "RemoveRunaway"
		default:
			site := live[r.Intn(len(live))].site
			s.ClearRunaways(site)
			kept := live[:0]
			for _, e := range live {
				if e.site != site {
					kept = append(kept, e)
				}
			}
			live = kept
			return "ClearRunaways"
		}
	}
	for i := 0; i < 160; i++ {
		name := op(i)
		check(s, fmt.Sprintf("op %d (%s, %d live)", i, name, len(live)))
	}
	if len(live) == 0 {
		t.Fatalf("the sequence left no chains; the restores below would be trivial")
	}

	snap := s.Snapshot()
	fresh := NewStore(box, tab, units.Fe)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	check(fresh, "Restore into a fresh store")
	for i := 160; i < 200; i++ {
		op(i)
	}
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	check(s, "Restore over changed chains")
}

// TestThreeStructuresAgree cross-validates the lattice neighbor list against
// the Verlet list and the linked cell: on a thermally perturbed lattice all
// three must find exactly the same interacting pairs within the cutoff.
func TestThreeStructuresAgree(t *testing.T) {
	l := lattice.New(5, 5, 5, a0)
	cutoff := 1.3 * a0 // between 2NN and 3NN
	skin := 0.3 * a0
	tab := l.NeighborOffsets(cutoff + skin)
	s := NewStore(fullBox(l, tab), tab, units.Fe)

	// Perturb every atom by a small random displacement (same displacement
	// for all periodic images, so apply via global index).
	r := rng.New(99)
	disp := make([]vec.V, l.NumSites())
	for i := range disp {
		disp[i] = vec.V{X: r.Norm(), Y: r.Norm(), Z: r.Norm()}.Scale(0.05)
	}
	pos := make([]vec.V, l.NumSites()) // canonical positions by global index
	for gi := range pos {
		pos[gi] = l.Position(l.Coord(gi)).Add(disp[gi])
	}
	for local := 0; local < s.Box.NumLocalSites(); local++ {
		gi := int(s.ID[local] - 1)
		c := s.Box.GlobalCoord(local)
		s.R[local] = l.Position(c).Add(disp[gi]) // unwrapped image + same disp
	}

	// Reference: Verlet list (filtered to the true cutoff).
	vl := NewVerletList(l, cutoff, skin)
	vl.Build(pos)
	// Linked cell.
	lc := NewLinkedCell(l, cutoff)
	lc.Build(pos)

	cut2 := cutoff * cutoff
	s.Box.EachOwned(func(c lattice.Coord, local int) {
		gi := int(s.ID[local] - 1)
		want := map[int]bool{}
		for _, j := range vl.Neighbors(gi) {
			if l.MinImage(pos[j], pos[gi]).Norm2() <= cut2 {
				want[int(j)] = true
			}
		}
		gotLC := map[int]bool{}
		lc.EachNeighbor(gi, func(j int32) { gotLC[int(j)] = true })
		if len(gotLC) != len(want) {
			t.Fatalf("site %d: linked cell %d vs verlet %d neighbors", gi, len(gotLC), len(want))
		}
		for j := range want {
			if !gotLC[j] {
				t.Fatalf("site %d: linked cell missing neighbor %d", gi, j)
			}
		}
		// Lattice neighbor list via static deltas.
		gotS := map[int]bool{}
		for _, d := range s.Deltas(c.B) {
			n := local + int(d)
			if vec.Dist(s.R[n], s.R[local]) <= cutoff {
				gotS[int(s.ID[n]-1)] = true
			}
		}
		if len(gotS) != len(want) {
			t.Fatalf("site %d: lattice list %d vs verlet %d neighbors", gi, len(gotS), len(want))
		}
		for j := range want {
			if !gotS[j] {
				t.Fatalf("site %d: lattice list missing neighbor %d", gi, j)
			}
		}
	})
}

func TestVerletRebuildCriterion(t *testing.T) {
	l := lattice.New(4, 4, 4, a0)
	pos := make([]vec.V, l.NumSites())
	for i := range pos {
		pos[i] = l.Position(l.Coord(i))
	}
	vl := NewVerletList(l, 1.3*a0, 0.4)
	vl.Build(pos)
	if vl.NeedsRebuild(pos) {
		t.Errorf("rebuild requested with no motion")
	}
	pos[3] = pos[3].Add(vec.V{X: 0.19}) // below skin/2
	if vl.NeedsRebuild(pos) {
		t.Errorf("rebuild requested below skin/2")
	}
	pos[3] = pos[3].Add(vec.V{X: 0.02}) // above skin/2
	if !vl.NeedsRebuild(pos) {
		t.Errorf("rebuild not requested above skin/2")
	}
}

func TestMemoryComparison(t *testing.T) {
	// The Fig. 11 capacity claim: the lattice neighbor list must be several
	// times cheaper per atom than the Verlet list on a realistic cutoff.
	l := lattice.New(6, 6, 6, a0)
	cutoff := 1.3 * a0
	tab := l.NeighborOffsets(cutoff + 0.3*a0)
	s := NewStore(fullBox(l, tab), tab, units.Fe)
	pos := make([]vec.V, l.NumSites())
	for i := range pos {
		pos[i] = l.Position(l.Coord(i))
	}
	vl := NewVerletList(l, cutoff, 0.3*a0)
	vl.Build(pos)

	// Verlet adds neighbor storage on top of the same per-atom payload the
	// store carries, so compare the *extra* structure cost per atom.
	verletExtra := float64(vl.MemoryBytes()) / float64(l.NumSites())
	storeExtra := float64(4*len(s.Deltas(0))+4*len(s.Deltas(1))) / float64(l.NumSites())
	if verletExtra < 4*storeExtra {
		t.Errorf("verlet extra %v B/atom, lattice list %v B/atom: expected >=4x gap",
			verletExtra, storeExtra)
	}
}

func BenchmarkLatticeListNeighborSweep(b *testing.B) {
	s, _ := newTestStore(10, 1.3*a0+0.5)
	box := s.Box
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		var sum float64
		box.EachOwned(func(c lattice.Coord, local int) {
			for _, d := range s.Deltas(c.B) {
				sum += s.R[local+int(d)].X
			}
		})
		_ = sum
	}
}

func BenchmarkVerletBuild(b *testing.B) {
	l := lattice.New(10, 10, 10, a0)
	pos := make([]vec.V, l.NumSites())
	for i := range pos {
		pos[i] = l.Position(l.Coord(i))
	}
	vl := NewVerletList(l, 1.3*a0, 0.3*a0)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		vl.Build(pos)
	}
}

func BenchmarkLinkedCellBuild(b *testing.B) {
	l := lattice.New(10, 10, 10, a0)
	pos := make([]vec.V, l.NumSites())
	for i := range pos {
		pos[i] = l.Position(l.Coord(i))
	}
	lc := NewLinkedCell(l, 1.3*a0)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		lc.Build(pos)
	}
}

// BenchmarkAblationNeighborStructures contrasts the per-sweep cost of the
// three neighbor structures on identical configurations.
func BenchmarkAblationNeighborStructures(b *testing.B) {
	l := lattice.New(12, 12, 12, units.LatticeConstantFe)
	cutoff := 1.3 * units.LatticeConstantFe
	pos := make([]vec.V, l.NumSites())
	for i := range pos {
		pos[i] = l.Position(l.Coord(i))
	}
	b.Run("lattice-list", func(b *testing.B) {
		tab := l.NeighborOffsets(cutoff + 0.9)
		s := NewStore(fullBox(l, tab), tab, units.Fe)
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			var sum float64
			s.Box.EachOwned(func(c lattice.Coord, local int) {
				for _, d := range s.Deltas(c.B) {
					sum += s.R[local+int(d)].X
				}
			})
			_ = sum
		}
		b.ReportMetric(float64(s.MemoryBytes())/float64(l.NumSites()), "bytes/site")
	})
	b.Run("verlet-list", func(b *testing.B) {
		vl := NewVerletList(l, cutoff, 0.3*units.LatticeConstantFe)
		vl.Build(pos)
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			if vl.NeedsRebuild(pos) {
				vl.Build(pos)
			}
			var sum float64
			for i := range pos {
				for _, j := range vl.Neighbors(i) {
					sum += pos[j].X
				}
			}
			_ = sum
		}
		b.ReportMetric(float64(vl.MemoryBytes())/float64(l.NumSites()), "bytes/site")
	})
	b.Run("linked-cell", func(b *testing.B) {
		lc := NewLinkedCell(l, cutoff)
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			lc.Build(pos) // rebuilt every step, as the paper notes
			var sum float64
			for i := range pos {
				lc.EachNeighbor(i, func(j int32) { sum += pos[j].X })
			}
			_ = sum
		}
		b.ReportMetric(float64(lc.MemoryBytes())/float64(l.NumSites()), "bytes/site")
	})
}
