package kmc

import (
	"fmt"
	"io"
	"math"

	"mdkmc/internal/halo"
)

// A rank file is a sealed file (halo.BeginFile) holding the rank's mutable
// state, format version 3. After the sealed-file header come the writing
// rank, Time, Cycles, Events and the local-site count (i64, f64 for Time);
// then the Occ section, one byte per local site, and the Rho section, one
// f64 per local site; then the checksum. Geometry and plans are rebuilt
// from the Config on restore; occupancy, densities and the clock are
// carried over, so the continued trajectory — whose RNG streams are a pure
// function of (seed, rank, cycle, sector) — is bit-identical to an
// uninterrupted run.
//
// Version history: 1 was a gob of (Occ, Rho, Time, Cycles); 2 added the
// cumulative per-rank event counter, so a restarted run reports the same
// total event count as an uninterrupted one. Both are refused by the
// sealed-file header.
const (
	fileMagic = 0x4b52434b // "KCRK"
	headBytes = 16 + 5*8   // sealed-file header, then rank, Time, Cycles, Events and the site count
)

// Save writes this rank's mutable state in one Write, packed into a buffer
// the state keeps; call it at a cycle boundary (the dirty set must be
// empty, which Cycle guarantees on return).
func (st *State) Save(w io.Writer) error {
	if len(st.dirty) != 0 {
		return fmt.Errorf("kmc: checkpoint requested mid-sector (%d dirty sites)", len(st.dirty))
	}
	p := &st.file
	p.BeginFile(fileMagic, headBytes+9*len(st.Occ)+4)
	p.I64(int64(st.Comm.Rank()))
	p.F64(st.Time)
	p.I64(int64(st.Cycles))
	p.I64(int64(st.Events))
	p.I64(int64(len(st.Occ)))
	for _, occ := range st.Occ {
		p.U8(occ)
	}
	for _, rho := range st.Rho {
		p.F64(rho)
	}
	p.Seal()
	_, err := w.Write(p.Bytes())
	return err
}

// Restore loads state written by Save into a state built with the same
// Config and world size. A rejected file leaves the state untouched.
func (st *State) Restore(rd io.Reader) error {
	sh, err := decode(rd, st.Comm.Rank(), len(st.Occ))
	if err != nil {
		return err
	}
	copy(st.Occ, sh.occ)
	rho := halo.NewUnpacker("kmc", sh.rho)
	for i := range st.Rho {
		st.Rho[i] = rho.F64()
	}
	st.Time = sh.time
	st.Cycles = sh.cycles
	st.Events = sh.events
	// Rebuild the owned-vacancy index and the event-rate cache from the
	// restored occupancy.
	st.rebuildVacancyIndex()
	return nil
}

// shard is one decoded and checked rank file: its clock and its two
// sections, Occ and the packed Rho.
type shard struct {
	time           float64
	cycles, events int
	occ, rho       []byte
}

// decode reads and checks the rank file of `rank`, input from outside the
// program: magic, format version, length and checksum (halo.ReadFile), the
// writing rank, `sites` entries per section, known occupancy codes only (an
// unknown one would index past the per-species shell tables), finite
// densities (a NaN one indexes past the embedding table), a finite
// non-negative clock and non-negative counters — the rule Config.Validate
// applies. Restore and the re-shard merge share it.
func decode(rd io.Reader, rank, sites int) (*shard, error) {
	u, err := halo.ReadFile("kmc", rd, fileMagic, headBytes+9*sites+4)
	if err != nil {
		return nil, err
	}
	if got := u.I64(); got != int64(rank) {
		return nil, fmt.Errorf("kmc: checkpoint is for rank %d, want rank %d", got, rank)
	}
	time, cycles, events, n := u.F64(), u.I64(), u.I64(), u.I64()
	if n != int64(sites) || int64(u.Remaining()) != 9*n {
		return nil, fmt.Errorf("kmc: rank %d checkpoint holds %d sites in %d bytes, want %d sites", rank, n, u.Remaining(), sites)
	}
	sh := &shard{time: time, cycles: int(cycles), events: int(events), occ: u.Next(sites), rho: u.Next(8 * sites)}
	rho := halo.NewUnpacker("kmc", sh.rho)
	for i, occ := range sh.occ {
		if occ >= numSpecies {
			return nil, fmt.Errorf("kmc: rank %d checkpoint field Occ[%d] holds unknown occupancy code %d", rank, i, occ)
		}
		if rho := rho.F64(); math.IsNaN(rho) || math.IsInf(rho, 0) {
			return nil, fmt.Errorf("kmc: rank %d checkpoint field Rho[%d] holds non-finite density %v", rank, i, rho)
		}
	}
	if !(time >= 0) || math.IsInf(time, 1) || cycles < 0 || events < 0 {
		return nil, fmt.Errorf("kmc: rank %d checkpoint clock t=%v after %d cycles and %d events: want all finite and non-negative",
			rank, time, cycles, events)
	}
	return sh, nil
}
