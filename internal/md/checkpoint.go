package md

import (
	"fmt"
	"io"
	"slices"

	"mdkmc/internal/halo"
	"mdkmc/internal/lattice"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// A rank file is a sealed file (halo.BeginFile) holding the rank's owned
// state, format version 3. After the sealed-file header come the writing
// rank, StepCount, LastPE, the owned-site count and the chain-atom count
// (i64, f64 for LastPE); then one siteRecord per owned site in
// Box.EachOwned order: the resident (a vacancy keeps ID -1 and its ideal
// position) and the number of run-away atoms anchored there; then one
// atomRecord per run-away atom, site after site, each chain in chain order;
// then the checksum. Nothing else is stored: ghosts, ρ and the embedding
// caches are rebuilt by the next force computation before a step reads
// them, no result depends on the run-away pool's slot layout, and the
// Config is rebuilt (and the geometry revalidated) by NewRank.
//
// Version history: 1 was a gob of the whole local store (ghosts, ρ, the
// pool slots and free list); 2 a gob of the owned atoms only. Both are
// refused by the sealed-file header.
const (
	fileMagic  = 0x4b52444d // "MDRK"
	headBytes  = 16 + 5*8   // sealed-file header, then rank, StepCount, LastPE and the two counts
	atomRecord = 8 + 1 + 3*24
	siteRecord = atomRecord + 4
)

// packAtom packs one atom record: ID, species, R, Vel, F.
func packAtom(p *halo.Packer, id int64, typ units.Element, r, vel, f vec.V) {
	p.I64(id)
	p.U8(uint8(typ))
	p.Vec(r)
	p.Vec(vel)
	p.Vec(f)
}

// unpackAtom reads one atom record into a.
func unpackAtom(u *halo.Unpacker, a *neighbor.Runaway) {
	a.ID, a.Type = u.I64(), units.Element(u.U8())
	a.R, a.Vel, a.F = u.Vec(), u.Vec(), u.Vec()
}

// Save writes this rank's owned state in one Write. It packs straight from
// the Store into a buffer the rank keeps, sized once to the file, so a
// snapshot allocates nothing that grows with the rank. Each rank saves its
// own file.
func (r *Rank) Save(w io.Writer) error {
	s, p := r.Store, &r.file
	n, chain := r.Box.NumOwnedSites(), CountOwnedRunaways(s)
	p.BeginFile(fileMagic, headBytes+n*siteRecord+chain*atomRecord+4)
	p.I64(int64(r.Comm.Rank()))
	p.I64(int64(r.StepCount))
	p.F64(r.LastPE)
	p.I64(int64(n))
	p.I64(int64(chain))
	r.Box.EachOwned(func(_ lattice.Coord, local int) {
		packAtom(p, s.ID[local], s.Type[local], s.R[local], s.Vel[local], s.F[local])
		k := 0
		s.EachRunaway(local, func(int32, *neighbor.Runaway) { k++ })
		p.I32(int32(k))
	})
	if chain > 0 {
		r.Box.EachOwned(func(_ lattice.Coord, local int) {
			s.EachRunaway(local, func(_ int32, a *neighbor.Runaway) { packAtom(p, a.ID, a.Type, a.R, a.Vel, a.F) })
		})
	}
	p.Seal()
	_, err := w.Write(p.Bytes())
	return err
}

// Restore loads state previously written by Save into a rank built with the
// same Config and world size. The continued trajectory is bit-identical to
// an uninterrupted run: forces and the owned potential-energy share come
// from the file, so no collective recomputation is needed. A rejected file
// leaves the rank untouched.
func (r *Rank) Restore(rd io.Reader) error {
	sh, err := r.decode(rd, r.Comm.Rank(), r.Box.NumOwnedSites())
	if err != nil {
		return err
	}
	r.place(sh, r.Grid.Box(r.Comm.Rank(), 0))
	r.StepCount, r.LastPE = sh.stepCount, sh.lastPE
	return nil
}

// shard is one decoded and checked rank file: its header values and its
// records, sites then chain atoms.
type shard struct {
	stepCount    int
	lastPE       float64
	sites, chain []byte // the site records and the chain-atom records
}

// place copies shard sh, written by the rank owning src (a box with no
// ghost layer, so its local index is the record index), into the sites of
// src this rank owns: the resident, and the run-away chain rebuilt in file
// order. It returns the number of sites placed. Restore and the re-shard
// merge both place through it.
func (r *Rank) place(sh *shard, src *lattice.Box) int {
	s := r.Store
	site, atom := halo.NewUnpacker("md", sh.sites), halo.NewUnpacker("md", nil)
	var a neighbor.Runaway
	next, placed := 0, 0
	src.EachOwned(func(c lattice.Coord, k int) {
		unpackAtom(site, &a)
		chain := sh.chain[next*atomRecord : (next+int(site.I32()))*atomRecord]
		next += len(chain) / atomRecord
		if !r.Box.Owns(c) {
			return
		}
		dst := r.Box.LocalIndex(c)
		s.ClearRunaways(dst)
		s.ID[dst], s.Type[dst] = a.ID, a.Type
		s.R[dst], s.Vel[dst], s.F[dst] = a.R, a.Vel, a.F
		// AddRunaway prepends, so adding in reverse keeps the file's order.
		for j := len(chain) - atomRecord; j >= 0; j -= atomRecord {
			atom.Reset(chain[j:])
			unpackAtom(atom, &a)
			s.AddRunaway(dst, a)
		}
		placed++
	})
	return placed
}

// decode reads and checks the rank file of `rank`, input from outside the
// program: magic, format version, length and checksum (halo.ReadFile, which
// reads at most a file of `sites` run-away atoms, one per owned site), then
// the writing rank, one record per each of its `sites` owned sites,
// run-away counts that add up to the chain list, species of the run's
// potential, and finite numbers — the rule the migrant reader and
// Config.Validate apply. A file that passes cannot make place index out of
// range or a later step compute with NaN. Restore and the re-shard merge
// share it.
func (r *Rank) decode(rd io.Reader, rank, sites int) (*shard, error) {
	u, err := halo.ReadFile("md", rd, fileMagic, headBytes+sites*(siteRecord+atomRecord)+4)
	if err != nil {
		return nil, err
	}
	if got := u.I64(); got != int64(rank) {
		return nil, fmt.Errorf("md: checkpoint is for rank %d, want rank %d", got, rank)
	}
	bad := func(format string, args ...any) (*shard, error) {
		return nil, fmt.Errorf("md: checkpoint of rank %d: "+format, append([]any{rank}, args...)...)
	}
	stepCount, lastPE := u.I64(), u.F64()
	if stepCount < 0 || !finite(vec.V{X: lastPE}) {
		return bad("StepCount %d, LastPE %v: want a non-negative step and a finite energy", stepCount, lastPE)
	}
	n, chain := u.I64(), u.I64()
	if n != int64(sites) {
		return bad("holds %d owned-site records, want %d owned sites", n, sites)
	}
	if chain < 0 || chain > n {
		return bad("declares %d run-away atoms, want 0 to %d (one per owned site)", chain, n)
	}
	if want := n*siteRecord + chain*atomRecord; int64(u.Remaining()) != want {
		return bad("%d owned-site and %d chain-atom records take %d bytes, the file holds %d", n, chain, want, u.Remaining())
	}
	sh := &shard{stepCount: int(stepCount), lastPE: lastPE}
	sh.sites, sh.chain = u.Next(sites*siteRecord), u.Next(int(chain)*atomRecord)

	names := [...]string{"R", "Vel", "F"}
	var a neighbor.Runaway
	check := func(what string, i int) error {
		if !slices.Contains(r.Pot.Elements, a.Type) {
			return fmt.Errorf("%s %d has element code %d, not a species of this run's potential %v", what, i, a.Type, r.Pot.Elements)
		}
		for k, v := range [...]*vec.V{&a.R, &a.Vel, &a.F} {
			if !finite(*v) {
				return fmt.Errorf("%s %d has non-finite %s %v", what, i, names[k], *v)
			}
		}
		return nil
	}
	site := halo.NewUnpacker("md", sh.sites)
	chained := 0
	for i := 0; i < sites; i++ {
		unpackAtom(site, &a)
		k := site.I32()
		if k < 0 {
			return bad("field Runaways[%d] is negative (%d)", i, k)
		}
		if err := check("owned site", i); err != nil {
			return bad("%w", err)
		}
		chained += int(k)
	}
	if chained != int(chain) {
		return bad("field Runaways counts %d run-away atoms, Chain holds %d", chained, chain)
	}
	atom := halo.NewUnpacker("md", sh.chain)
	for i := 0; i < int(chain); i++ {
		unpackAtom(atom, &a)
		if err := check("chain atom", i); err != nil {
			return bad("%w", err)
		}
	}
	return sh, nil
}
