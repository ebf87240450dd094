package md

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mdkmc/internal/halo"
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// rankFileConfig is the 2-rank writer of the rank-file tests: a thermal
// crystal with a recoil, so the files carry run-away chains.
func rankFileConfig() Config {
	cfg := smallConfig()
	cfg.Cells = [3]int{8, 4, 4}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.Temperature = 600
	cfg.Dt = 2e-4
	cfg.PKA = &PKA{Energy: 120}
	return cfg
}

// saveRankFiles steps cfg's world and returns every rank's Save output.
func saveRankFiles(t testing.TB, cfg Config, steps int) [][]byte {
	files := make([][]byte, cfg.Ranks())
	mpi.NewWorld(cfg.Ranks()).Run(func(c *mpi.Comm) {
		r, err := NewRank(cfg, c)
		if err != nil {
			panic(err)
		}
		for i := 0; i < steps; i++ {
			r.Step()
		}
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Errorf("save: %v", err)
		}
		files[r.Comm.Rank()] = buf.Bytes()
	})
	return files
}

// cascadeRankFile steps a one-rank 120 eV cascade until a run-away chain
// is in use and returns its config and rank file.
func cascadeRankFile(t *testing.T) (Config, []byte) {
	cfg := smallConfig()
	cfg.Temperature = 600
	cfg.Dt = 2e-4
	cfg.PKA = &PKA{Energy: 120}
	var file bytes.Buffer
	chained := false
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 200 && !chained; i++ {
			r.Step()
			chained = CountOwnedRunaways(r.Store) > 0
		}
		if err := r.Save(&file); err != nil {
			t.Errorf("save: %v", err)
		}
	})
	if !chained {
		t.Fatalf("cascade left no run-away chain")
	}
	return cfg, file.Bytes()
}

// shardsOf serves files as the shards of a decomposition of l cut by grid.
func shardsOf(t testing.TB, l *lattice.Lattice, grid [3]int, files [][]byte) ShardSource {
	g, err := lattice.NewGrid(l, grid[0], grid[1], grid[2])
	if err != nil {
		t.Fatal(err)
	}
	return ShardSource{Grid: g, Open: func(rank int) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(files[rank])), nil
	}}
}

// rankState is what a restore must reproduce of a rank: every local site,
// ghosts included, each site's run-away chain in chain order (pool slots
// aside), the step counter and the owned potential-energy share.
type rankState struct {
	ID        []int64
	Type      []units.Element
	R, Vel, F []vec.V
	Rho       []float64
	Chains    [][]neighbor.Runaway
	StepCount int
	LastPE    float64
}

func stateOf(r *Rank) rankState {
	s := r.Store
	st := rankState{
		ID: slices.Clone(s.ID), Type: slices.Clone(s.Type),
		R: slices.Clone(s.R), Vel: slices.Clone(s.Vel), F: slices.Clone(s.F), Rho: slices.Clone(s.Rho),
		Chains:    make([][]neighbor.Runaway, len(s.ID)),
		StepCount: r.StepCount, LastPE: r.LastPE,
	}
	for local := range s.ID {
		s.EachRunaway(local, func(_ int32, a *neighbor.Runaway) {
			c := *a
			c.Next = 0
			st.Chains[local] = append(st.Chains[local], c)
		})
	}
	return st
}

// TestReshardOntoOwnGridIsExact: RestoreResharded onto the decomposition
// that wrote the files — given as an equal grid, not the same pointer — is
// the exact restore: the rank state equals what Restore produces, and
// saving it again reproduces the input bytes.
func TestReshardOntoOwnGridIsExact(t *testing.T) {
	cfg := rankFileConfig()
	files := saveRankFiles(t, cfg, 20)

	exact := make([]rankState, cfg.Ranks())
	runWorld(t, cfg, func(r *Rank) {
		if err := r.Restore(bytes.NewReader(files[r.Comm.Rank()])); err != nil {
			t.Errorf("restore: %v", err)
		}
		exact[r.Comm.Rank()] = stateOf(r)
	})
	runWorld(t, cfg, func(r *Rank) {
		me := r.Comm.Rank()
		if err := r.RestoreResharded(shardsOf(t, r.L, cfg.Grid, files)); err != nil {
			t.Errorf("rank %d reshard: %v", me, err)
			return
		}
		if got := stateOf(r); !reflect.DeepEqual(got, exact[me]) {
			t.Errorf("rank %d: reshard onto the writer's grid differs from Restore (step %d vs %d, PE %v vs %v)",
				me, got.StepCount, exact[me].StepCount, got.LastPE, exact[me].LastPE)
		}
		var again bytes.Buffer
		if err := r.Save(&again); err != nil {
			t.Errorf("save: %v", err)
		}
		if !bytes.Equal(again.Bytes(), files[me]) {
			t.Errorf("rank %d: saving the restored state does not reproduce its rank file", me)
		}
	})
}

// rankFile is a rank file taken apart, for tests that mutate one: the
// header values, per owned site its resident and run-away count, and the
// chain atoms.
type rankFile struct {
	Rank, StepCount int64
	LastPE          float64
	ID              []int64
	Type            []units.Element
	R, Vel, F       []vec.V
	Runaways        []int32
	Chain           []neighbor.Runaway
}

// parseRankFile takes a rank file that Save wrote apart.
func parseRankFile(t testing.TB, file []byte) *rankFile {
	u, err := halo.OpenFile("md", file, fileMagic)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	rf := &rankFile{Rank: u.I64(), StepCount: u.I64(), LastPE: u.F64()}
	sites, chain := u.I64(), u.I64()
	var a neighbor.Runaway
	for i := int64(0); i < sites; i++ {
		unpackAtom(u, &a)
		rf.ID, rf.Type = append(rf.ID, a.ID), append(rf.Type, a.Type)
		rf.R, rf.Vel, rf.F = append(rf.R, a.R), append(rf.Vel, a.Vel), append(rf.F, a.F)
		rf.Runaways = append(rf.Runaways, u.I32())
	}
	for i := int64(0); i < chain; i++ {
		unpackAtom(u, &a)
		rf.Chain = append(rf.Chain, a)
	}
	return rf
}

// encode packs and seals rf in Save's layout, whatever it holds: the header
// declares len(ID) owned sites and len(Chain) chain atoms, and each site
// record holds the fields of its index that rf has, so a short or long field
// makes a file of the wrong length.
func (rf *rankFile) encode() []byte {
	var p halo.Packer
	p.BeginFile(fileMagic, 0)
	p.I64(rf.Rank)
	p.I64(rf.StepCount)
	p.F64(rf.LastPE)
	p.I64(int64(len(rf.ID)))
	p.I64(int64(len(rf.Chain)))
	n := max(len(rf.ID), len(rf.Type), len(rf.R), len(rf.Vel), len(rf.F), len(rf.Runaways))
	for i := 0; i < n; i++ {
		if i < len(rf.ID) {
			p.I64(rf.ID[i])
		}
		if i < len(rf.Type) {
			p.U8(uint8(rf.Type[i]))
		}
		for _, v := range [][]vec.V{rf.R, rf.Vel, rf.F} {
			if i < len(v) {
				p.Vec(v[i])
			}
		}
		if i < len(rf.Runaways) {
			p.I32(rf.Runaways[i])
		}
	}
	for _, a := range rf.Chain {
		packAtom(&p, a.ID, a.Type, a.R, a.Vel, a.F)
	}
	p.Seal()
	return bytes.Clone(p.Bytes())
}

// mutateRankFile takes a rank file apart, applies mutate and seals it
// again, so the decoder's value checks, not the checksum, judge it.
func mutateRankFile(t testing.TB, file []byte, mutate func(rf *rankFile)) []byte {
	rf := parseRankFile(t, file)
	mutate(rf)
	return rf.encode()
}

// reseal frames a copy of data as a rank file — magic, format version,
// length and checksum set — so that only the decoder's checks past the
// sealed-file header judge it. Data too short to frame is returned as is.
func reseal(data []byte) []byte {
	if len(data) < headBytes {
		return data
	}
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out, fileMagic)
	binary.LittleEndian.PutUint32(out[4:], halo.FileVersion)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(out)))
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// FuzzRankFile: the decoder is the trust boundary of an MD restart. Any
// bytes in place of rank 0's file must make Restore and RestoreResharded —
// onto the writer's own grid and merged onto one rank — return an md: error
// or succeed, never panic, and a rejected Restore must leave the rank as it
// was. The seed corpus is real Save output plus truncated and bit-flipped
// copies of it, and re-sealed files with an unknown species, a NaN position
// or a negative run-away count.
func FuzzRankFile(f *testing.F) {
	cfg := rankFileConfig()
	files := saveRankFiles(f, cfg, 20)
	for _, file := range files {
		f.Add(file)
	}
	good := files[0]
	for _, n := range []int{0, 1, 16, len(good) / 2, len(good) - 1} {
		f.Add(good[:n])
	}
	for k := 1; k <= 8; k++ {
		bad := bytes.Clone(good)
		bad[k*(len(bad)-1)/8] ^= 1 << (k % 8)
		f.Add(bad)
	}
	f.Add(mutateRankFile(f, good, func(rf *rankFile) { rf.Type[1] = 9 }))
	f.Add(mutateRankFile(f, good, func(rf *rankFile) { rf.R[1].X = math.NaN() }))
	f.Add(mutateRankFile(f, good, func(rf *rankFile) { rf.Runaways[1] = -1 }))
	merged := cfg
	merged.Grid = [3]int{1, 1, 1}

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(op string, err error) bool {
			t.Helper()
			if err != nil && !strings.HasPrefix(err.Error(), "md: ") {
				t.Errorf("%s error %q is not an md: error", op, err)
			}
			return err == nil
		}
		// Random bytes almost never pass the checksum, so a re-sealed copy
		// of each input takes them on to the value checks.
		for _, file := range [][]byte{data, reseal(data)} {
			input := [][]byte{file, files[1]}
			runWorld(t, cfg, func(r *Rank) {
				if r.Comm.Rank() == 0 {
					before := stateOf(r)
					if !check("Restore", r.Restore(bytes.NewReader(file))) && !reflect.DeepEqual(before, stateOf(r)) {
						t.Errorf("rejected Restore modified the rank")
					}
				}
				check("RestoreResharded onto the writer's grid", r.RestoreResharded(shardsOf(t, r.L, cfg.Grid, input)))
			})
			runWorld(t, merged, func(r *Rank) {
				check("RestoreResharded onto one rank", r.RestoreResharded(shardsOf(t, r.L, cfg.Grid, input)))
			})
		}
	})
}

// TestReshardOpensOnlyOverlappingShards: a restart opens the shards whose
// owned box overlaps the reader's and no others — its own file on the
// writer's grid, both halves on a merge, and on a re-slice only the two of
// four shards that cover each target.
func TestReshardOpensOnlyOverlappingShards(t *testing.T) {
	cfg := rankFileConfig()
	for _, tc := range []struct {
		name     string
		from, to [3]int
		opens    int
	}{
		{"onto the writer's grid", [3]int{2, 1, 1}, [3]int{2, 1, 1}, 1},
		{"2x1x1 merged onto 1x1x1", [3]int{2, 1, 1}, [3]int{1, 1, 1}, 2},
		{"2x2x1 onto 2x1x1", [3]int{2, 2, 1}, [3]int{2, 1, 1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			writer := cfg
			writer.Grid = tc.from
			files := saveRankFiles(t, writer, 5)
			reader := cfg
			reader.Grid = tc.to
			runWorld(t, reader, func(r *Rank) {
				src := shardsOf(t, r.L, tc.from, files)
				opened := 0
				open := src.Open
				src.Open = func(rank int) (io.ReadCloser, error) {
					opened++
					return open(rank)
				}
				if err := r.RestoreResharded(src); err != nil {
					t.Errorf("rank %d: %v", r.Comm.Rank(), err)
				}
				if opened != tc.opens {
					t.Errorf("rank %d opened %d shards, want %d", r.Comm.Rank(), opened, tc.opens)
				}
			})
		})
	}
}

// TestRankFileBytesPerAtom: what a rank file costs per owned atom on the
// 20³ thermal crystal of TestRankMemoryPerAtom, two steps in (so forces are
// non-zero). The whole-store gob file (ghost shell, ρ, the run-away pool)
// took 141 B, the gob of the owned atoms 98; the 85-byte site records take
// 85.0 (the header and checksum add 60 B per file). 0.5 B of slack admits a
// few run-away atoms at 81 B each.
func TestRankFileBytesPerAtom(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cells = [3]int{20, 20, 20}
	cfg.Temperature = 600
	cfg.Workers = 1
	runWorld(t, cfg, func(r *Rank) {
		r.Step()
		r.Step()
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		perAtom := float64(buf.Len()) / float64(CountOwnedAtoms(r.Store))
		t.Logf("rank file holds %.1f B/atom", perAtom)
		if perAtom > 85.5 {
			t.Errorf("rank file holds %.1f B/atom, want at most 85.5", perAtom)
		}
	})
}

// TestRankFileIntegrity: a damaged rank file — cut at any of its first 64
// bytes, at half and one byte short, or with one bit flipped in the header,
// a site record, a chain record or the checksum — is refused by Restore with
// an md: error, and the rank is left as it was.
func TestRankFileIntegrity(t *testing.T) {
	cfg, good := cascadeRankFile(t)
	rf := parseRankFile(t, good)
	var bad [][]byte
	for n := 0; n <= 64; n++ {
		bad = append(bad, good[:n])
	}
	bad = append(bad, good[:len(good)/2], good[:len(good)-1])
	for _, at := range []int{20, headBytes + 3*siteRecord + 10, headBytes + len(rf.ID)*siteRecord + 30, len(good) - 1} {
		flipped := bytes.Clone(good)
		flipped[at] ^= 0x10
		bad = append(bad, flipped)
	}
	runWorld(t, cfg, func(r *Rank) {
		before := stateOf(r)
		for _, file := range bad {
			if err := r.Restore(bytes.NewReader(file)); err == nil || !strings.HasPrefix(err.Error(), "md: ") {
				t.Errorf("Restore of a damaged %d-byte file: error %v, want an md: error", len(file), err)
			}
		}
		if !reflect.DeepEqual(before, stateOf(r)) {
			t.Errorf("refused Restore modified the rank")
		}
	})
}

// TestSaveAllocatesNoRankSizedBuffer: past the first Save, which grows the
// rank's file buffer, a Save allocates the same at 4³ and at 12³ cells
// (nothing, measured), and nothing that grows with the rank.
func TestSaveAllocatesNoRankSizedBuffer(t *testing.T) {
	var allocs []float64
	for _, cells := range []int{4, 12} {
		cfg := smallConfig()
		cfg.Cells = [3]int{cells, cells, cells}
		cfg.Temperature = 600
		runWorld(t, cfg, func(r *Rank) {
			r.Step()
			if err := r.Save(io.Discard); err != nil {
				t.Errorf("save: %v", err)
			}
			allocs = append(allocs, testing.AllocsPerRun(20, func() { r.Save(io.Discard) }))
		})
	}
	t.Logf("allocations per Save: %v", allocs)
	if allocs[0] != allocs[1] || allocs[1] > 2 {
		t.Errorf("allocations per Save at 4³ and 12³ cells: %v, want the same, at most 2", allocs)
	}
}
