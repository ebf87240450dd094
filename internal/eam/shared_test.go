package eam

import (
	"math"
	"sync"
	"testing"

	"mdkmc/internal/units"
)

// samePotential reports the first difference between two potentials: their
// scalars, species and every table sample, bit for bit.
func samePotential(p, q *Potential) string {
	switch {
	case p.Mode != q.Mode || p.points != q.points:
		return "mode or resolution"
	case math.Float64bits(p.Cutoff) != math.Float64bits(q.Cutoff) ||
		math.Float64bits(p.RMin) != math.Float64bits(q.RMin) ||
		math.Float64bits(p.rhoMax) != math.Float64bits(q.rhoMax):
		return "cutoff, table floor or ρ range"
	case len(p.Elements) != len(q.Elements):
		return "species"
	}
	same := func(a, b *Table) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		if a == nil {
			return true
		}
		if math.Float64bits(a.X0) != math.Float64bits(b.X0) ||
			math.Float64bits(a.Dx) != math.Float64bits(b.Dx) || len(a.S) != len(b.S) {
			return false
		}
		for i := range a.S {
			if math.Float64bits(a.S[i]) != math.Float64bits(b.S[i]) {
				return false
			}
		}
		return true
	}
	for i, e := range p.Elements {
		if q.Elements[i] != e {
			return "species"
		}
		if !same(p.embed[e], q.embed[e]) {
			return "embedding table of " + e.String()
		}
		for _, f := range p.Elements {
			if !same(p.pair[e][f], q.pair[e][f]) || !same(p.dens[e][f], q.dens[e][f]) {
				return "pair or density table " + e.String() + "-" + f.String()
			}
		}
	}
	return ""
}

func TestSharedMatchesFreshBuild(t *testing.T) {
	for _, mode := range []Mode{Analytic, Compacted} {
		for _, set := range []struct {
			elems []units.Element
			fresh func(Mode, int) *Potential
		}{
			{[]units.Element{units.Fe}, NewFe},
			{[]units.Element{units.Fe, units.Cu}, NewFeCu},
		} {
			for _, points := range []int{64, 1000, TablePoints} {
				got := Shared(mode, points, set.elems...)
				if diff := samePotential(got, set.fresh(mode, points)); diff != "" {
					t.Errorf("%v %v %d points: shared potential differs from a fresh build in its %s",
						mode, set.elems, points, diff)
				}
				if again := Shared(mode, points, set.elems...); again != got {
					t.Errorf("%v %v %d points: a second call built another potential", mode, set.elems, points)
				}
			}
		}
	}
}

// TestSharedBuildsOncePerKey asks for one fresh key from many goroutines at
// once, as the ranks of a world do (run it under -race).
func TestSharedBuildsOncePerKey(t *testing.T) {
	const callers = 8
	got := make([]*Potential, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Shared(Compacted, 333, units.Fe, units.Cu)
		}(i)
	}
	wg.Wait()
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("caller %d got another potential than caller 0", i)
		}
	}
}

func TestSharedCacheIsBounded(t *testing.T) {
	keys := []int{41, 42, 43, 44, 45} // resolutions no other test asks for
	first := Shared(Compacted, keys[0], units.Fe)
	for _, points := range keys[1:] {
		Shared(Compacted, points, units.Fe)
	}
	shared.mu.Lock()
	held, kept := 0, false
	for _, p := range shared.pots {
		if p != nil {
			held++
		}
		kept = kept || p == first
	}
	shared.mu.Unlock()
	if held > sharedBound || kept {
		t.Fatalf("after %d distinct keys the cache holds %d potentials (bound %d), least recent kept: %v",
			len(keys), held, sharedBound, kept)
	}
	again := Shared(Compacted, keys[0], units.Fe)
	if again == first {
		t.Fatal("the evicted key came back as the evicted instance")
	}
	if diff := samePotential(again, first); diff != "" {
		t.Errorf("the evicted key rebuilt a potential that differs in its %s", diff)
	}
}
