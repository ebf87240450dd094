package md

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"mdkmc/internal/lattice"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// checkpoint is the serialized per-rank MD state: the step counter, the
// owned potential-energy share and, per owned site in Box.EachOwned order,
// the resident (a vacancy keeps ID -1 and its ideal position) and the
// number of run-away atoms anchored there, which follow in Chain site after
// site, each chain in chain order. Nothing else is stored: ghosts, ρ and
// the embedding caches are rebuilt by the next force computation before a
// step reads them, no result depends on the run-away pool's slot layout,
// and the Config is rebuilt (and the geometry revalidated) by NewRank.
type checkpoint struct {
	Version   int
	Rank      int
	StepCount int
	LastPE    float64

	ID        []int64
	Type      []units.Element
	R, Vel, F []vec.V
	Runaways  []int32
	Chain     []chainAtom
}

// chainAtom is one run-away atom of a rank file.
type chainAtom struct {
	ID        int64
	Type      units.Element
	R, Vel, F vec.V
}

// Version history: 1 was a gob of the whole local store (ghosts, ρ, the
// pool slots and free list); 2 holds only the owned atoms. Version 1 files
// are refused.
const checkpointVersion = 2

// Save writes this rank's owned state. Each rank saves its own stream (one
// file per rank in a parallel run).
func (r *Rank) Save(w io.Writer) error {
	s, n := r.Store, r.Box.NumOwnedSites()
	cp := checkpoint{Version: checkpointVersion, Rank: r.Comm.Rank(), StepCount: r.StepCount, LastPE: r.LastPE,
		ID: make([]int64, 0, n), Type: make([]units.Element, 0, n), Runaways: make([]int32, 0, n),
		R: make([]vec.V, 0, n), Vel: make([]vec.V, 0, n), F: make([]vec.V, 0, n)}
	r.Box.EachOwned(func(_ lattice.Coord, local int) {
		cp.ID = append(cp.ID, s.ID[local])
		cp.Type = append(cp.Type, s.Type[local])
		cp.R = append(cp.R, s.R[local])
		cp.Vel = append(cp.Vel, s.Vel[local])
		cp.F = append(cp.F, s.F[local])
		k := len(cp.Chain)
		s.EachRunaway(local, func(_ int32, a *neighbor.Runaway) {
			cp.Chain = append(cp.Chain, chainAtom{ID: a.ID, Type: a.Type, R: a.R, Vel: a.Vel, F: a.F})
		})
		cp.Runaways = append(cp.Runaways, int32(len(cp.Chain)-k))
	})
	return gob.NewEncoder(w).Encode(cp)
}

// Restore loads state previously written by Save into a rank built with the
// same Config and world size. The continued trajectory is bit-identical to
// an uninterrupted run: forces and the owned potential-energy share come
// from the file, so no collective recomputation is needed. A rejected file
// leaves the rank untouched.
func (r *Rank) Restore(rd io.Reader) error {
	cp, err := r.decode(rd, r.Comm.Rank(), r.Box.NumOwnedSites())
	if err != nil {
		return err
	}
	r.place(cp, r.Grid.Box(r.Comm.Rank(), 0))
	r.StepCount, r.LastPE = cp.StepCount, cp.LastPE
	return nil
}

// place copies shard cp, written by the rank owning src (a box with no
// ghost layer, so its local index is the record index), into the sites of
// src this rank owns: the resident, and the run-away chain rebuilt in file
// order. It returns the number of sites placed. Restore and the re-shard
// merge both place through it.
func (r *Rank) place(cp *checkpoint, src *lattice.Box) int {
	s := r.Store
	next, placed := 0, 0
	src.EachOwned(func(c lattice.Coord, k int) {
		chain := cp.Chain[next : next+int(cp.Runaways[k])]
		next += len(chain)
		if !r.Box.Owns(c) {
			return
		}
		dst := r.Box.LocalIndex(c)
		s.ClearRunaways(dst)
		s.ID[dst], s.Type[dst] = cp.ID[k], cp.Type[k]
		s.R[dst], s.Vel[dst], s.F[dst] = cp.R[k], cp.Vel[k], cp.F[k]
		// AddRunaway prepends, so adding in reverse keeps the file's order.
		for j := len(chain) - 1; j >= 0; j-- {
			a := chain[j]
			s.AddRunaway(dst, neighbor.Runaway{ID: a.ID, Type: a.Type, R: a.R, Vel: a.Vel, F: a.F})
		}
		placed++
	})
	return placed
}

// decode reads and checks the rank file of `rank`, input from outside the
// program: format version, writing rank, one record per each of its `sites`
// owned sites, run-away counts that add up to the chain list,
// species of the run's potential, and finite numbers — the rule the migrant
// reader and Config.Validate apply. A file that passes cannot make place
// index out of range or a later step compute with NaN. Restore and the
// re-shard merge share it.
func (r *Rank) decode(rd io.Reader, rank, sites int) (*checkpoint, error) {
	var cp checkpoint
	if err := gob.NewDecoder(rd).Decode(&cp); err != nil {
		return nil, fmt.Errorf("md: decoding checkpoint of rank %d: %w", rank, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("md: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if cp.Rank != rank {
		return nil, fmt.Errorf("md: checkpoint is for rank %d, want rank %d", cp.Rank, rank)
	}
	bad := func(format string, args ...any) (*checkpoint, error) {
		return nil, fmt.Errorf("md: checkpoint of rank %d: "+format, append([]any{rank}, args...)...)
	}
	if cp.StepCount < 0 || !finite(vec.V{X: cp.LastPE}) {
		return bad("StepCount %d, LastPE %v: want a non-negative step and a finite energy", cp.StepCount, cp.LastPE)
	}
	names := [...]string{"ID", "Type", "R", "Vel", "F", "Runaways"}
	for k, n := range [...]int{len(cp.ID), len(cp.Type), len(cp.R), len(cp.Vel), len(cp.F), len(cp.Runaways)} {
		if n != sites {
			return bad("field %s has %d entries, want %d owned sites", names[k], n, sites)
		}
	}
	chained := 0
	for i, k := range cp.Runaways {
		if k < 0 {
			return bad("field Runaways[%d] is negative (%d)", i, k)
		}
		chained += int(k)
	}
	if chained != len(cp.Chain) {
		return bad("field Runaways counts %d run-away atoms, Chain holds %d", chained, len(cp.Chain))
	}
	atom := func(what string, i int, typ units.Element, rvf ...vec.V) error {
		if !slices.Contains(r.Pot.Elements, typ) {
			return fmt.Errorf("%s %d has element code %d, not a species of this run's potential %v", what, i, typ, r.Pot.Elements)
		}
		for k, v := range rvf {
			if !finite(v) {
				return fmt.Errorf("%s %d has non-finite %s %v", what, i, names[2+k], v)
			}
		}
		return nil
	}
	for i := range cp.ID {
		if err := atom("owned site", i, cp.Type[i], cp.R[i], cp.Vel[i], cp.F[i]); err != nil {
			return bad("%w", err)
		}
	}
	for i, a := range cp.Chain {
		if err := atom("chain atom", i, a.Type, a.R, a.Vel, a.F); err != nil {
			return bad("%w", err)
		}
	}
	return &cp, nil
}
