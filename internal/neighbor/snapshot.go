package neighbor

import (
	"fmt"

	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// Snapshot is the serializable state of a Store: everything that changes
// during a run (per-site fields and the run-away pool), excluding the
// static geometry, which the restoring side reconstructs from its
// configuration. All fields are exported for encoding/gob.
type Snapshot struct {
	ID   []int64
	Type []units.Element
	R    []vec.V
	Vel  []vec.V
	F    []vec.V
	Rho  []float64
	Head []int32
	Pool []Runaway
	Free int32
}

// Snapshot captures the store's mutable state.
func (s *Store) Snapshot() Snapshot {
	cp := Snapshot{
		ID:   append([]int64(nil), s.ID...),
		Type: append([]units.Element(nil), s.Type...),
		R:    append([]vec.V(nil), s.R...),
		Vel:  append([]vec.V(nil), s.Vel...),
		F:    append([]vec.V(nil), s.F...),
		Rho:  append([]float64(nil), s.Rho...),
		Head: append([]int32(nil), s.Head...),
		Pool: append([]Runaway(nil), s.pool...),
		Free: s.free,
	}
	return cp
}

// Validate checks a snapshot that arrived from outside the program (a
// checkpoint file) against a store of `sites` local sites: every per-site
// slice has that length, every run-away reference (Head, Next, Free) is
// NoRunaway or a Pool index, and the chains — the free list and one per site
// — are acyclic and share no slot. A snapshot that passes cannot make a
// chain walk index out of range or loop forever.
func (snap *Snapshot) Validate(sites int) error {
	for _, f := range []struct {
		name string
		n    int
	}{
		{"ID", len(snap.ID)}, {"Type", len(snap.Type)}, {"R", len(snap.R)},
		{"Vel", len(snap.Vel)}, {"F", len(snap.F)}, {"Rho", len(snap.Rho)},
		{"Head", len(snap.Head)},
	} {
		if f.n != sites {
			return fmt.Errorf("neighbor: snapshot field %s has %d entries, want %d sites", f.name, f.n, sites)
		}
	}
	// Walking every chain while marking the slots it visits finds an
	// out-of-range reference, a cycle and a slot shared by two chains alike.
	seen := make([]bool, len(snap.Pool))
	walk := func(chain string, site int, ref int32) error {
		for ; ref != NoRunaway; ref = snap.Pool[ref].Next {
			if ref < 0 || int(ref) >= len(snap.Pool) {
				return fmt.Errorf("neighbor: snapshot %s chain (site %d) references run-away %d outside Pool (%d entries)",
					chain, site, ref, len(snap.Pool))
			}
			if seen[ref] {
				return fmt.Errorf("neighbor: snapshot %s chain (site %d) reaches Pool[%d] a second time: Next cycle or slot shared with another chain",
					chain, site, ref)
			}
			seen[ref] = true
		}
		return nil
	}
	if err := walk("Free", -1, snap.Free); err != nil {
		return err
	}
	for site, head := range snap.Head {
		if err := walk("Head", site, head); err != nil {
			return err
		}
	}
	return nil
}

// Restore overwrites the store's mutable state from a snapshot taken on a
// store with identical geometry and rebuilds the near-chain index from the
// restored chains. A snapshot from outside the program must have passed
// Validate against this store's site count first.
func (s *Store) Restore(snap Snapshot) {
	copy(s.ID, snap.ID)
	copy(s.Type, snap.Type)
	copy(s.R, snap.R)
	copy(s.Vel, snap.Vel)
	copy(s.F, snap.F)
	copy(s.Rho, snap.Rho)
	copy(s.Head, snap.Head)
	s.pool = append(s.pool[:0], snap.Pool...)
	s.free = snap.Free
	clear(s.near)
	for site, head := range s.Head {
		if head != NoRunaway {
			s.pushNear(site, 1)
		}
	}
}
