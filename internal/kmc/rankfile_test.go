package kmc

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"mdkmc/internal/halo"
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
)

// rankFileConfig is the 2-rank writer of the rank-file tests.
func rankFileConfig() Config {
	cfg := testConfig()
	cfg.Grid = [3]int{2, 1, 1}
	return cfg
}

// saveRankFiles cycles cfg's world and returns every rank's Save output.
func saveRankFiles(t testing.TB, cfg Config, cycles int) [][]byte {
	files := make([][]byte, cfg.Ranks())
	mpi.NewWorld(cfg.Ranks()).Run(func(c *mpi.Comm) {
		st, err := NewState(cfg, c)
		if err != nil {
			panic(err)
		}
		for i := 0; i < cycles; i++ {
			st.Cycle()
		}
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			t.Errorf("save: %v", err)
		}
		files[st.Comm.Rank()] = buf.Bytes()
	})
	return files
}

// rankFile is a rank file taken apart, for tests that mutate one.
type rankFile struct {
	Rank           int64
	Time           float64
	Cycles, Events int64
	Occ            []uint8
	Rho            []float64
}

// parseRankFile takes a rank file that Save wrote apart.
func parseRankFile(t testing.TB, file []byte) *rankFile {
	u, err := halo.OpenFile("kmc", file, fileMagic)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	rf := &rankFile{Rank: u.I64(), Time: u.F64(), Cycles: u.I64(), Events: u.I64()}
	n := int(u.I64())
	rf.Occ = bytes.Clone(u.Next(n))
	for i := 0; i < n; i++ {
		rf.Rho = append(rf.Rho, u.F64())
	}
	return rf
}

// encode packs and seals rf in Save's layout, whatever it holds: the header
// declares len(Occ) sites, so a short Rho makes a file of the wrong length.
func (rf *rankFile) encode() []byte {
	var p halo.Packer
	p.BeginFile(fileMagic, 0)
	p.I64(rf.Rank)
	p.F64(rf.Time)
	p.I64(rf.Cycles)
	p.I64(rf.Events)
	p.I64(int64(len(rf.Occ)))
	for _, occ := range rf.Occ {
		p.U8(occ)
	}
	for _, rho := range rf.Rho {
		p.F64(rho)
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

// rankState is what a restore must reproduce of a rank.
type rankState struct {
	Occ    []uint8
	Rho    []float64
	Events int
	Cycles int
	Time   float64
}

func stateOf(st *State) rankState {
	return rankState{
		Occ: append([]uint8(nil), st.Occ...), Rho: append([]float64(nil), st.Rho...),
		Events: st.Events, Cycles: st.Cycles, Time: st.Time,
	}
}

// TestReshardOntoOwnGridIsExact: RestoreResharded onto the decomposition
// that wrote the files — given as an equal grid, not the same pointer — is
// the exact restore: occupancy, densities, per-rank event counters, cycle
// count and clock are bit-equal to what Restore produces (a merge would
// recompute ρ from scratch and sum the event counters onto rank 0), and
// saving the state again reproduces the input bytes.
func TestReshardOntoOwnGridIsExact(t *testing.T) {
	cfg := rankFileConfig()
	files := saveRankFiles(t, cfg, 8)

	exact := make([]rankState, cfg.Ranks())
	runWorld(t, cfg, func(st *State) {
		if err := st.Restore(bytes.NewReader(files[st.Comm.Rank()])); err != nil {
			t.Errorf("restore: %v", err)
		}
		exact[st.Comm.Rank()] = stateOf(st)
	})
	if exact[0].Events == 0 || exact[1].Events == 0 {
		t.Fatalf("per-rank events %d/%d: the writer must have fired events on both ranks",
			exact[0].Events, exact[1].Events)
	}
	runWorld(t, cfg, func(st *State) {
		me := st.Comm.Rank()
		if err := st.RestoreResharded(shardsOf(t, st.L, cfg.Grid, files)); err != nil {
			t.Errorf("rank %d reshard: %v", me, err)
			return
		}
		if got := stateOf(st); !reflect.DeepEqual(got, exact[me]) {
			t.Errorf("rank %d: reshard onto the writer's grid differs from Restore (events %d vs %d, cycles %d vs %d)",
				me, got.Events, exact[me].Events, got.Cycles, exact[me].Cycles)
		}
		var again bytes.Buffer
		if err := st.Save(&again); err != nil {
			t.Errorf("save: %v", err)
		}
		if !bytes.Equal(again.Bytes(), files[me]) {
			t.Errorf("rank %d: saving the restored state does not reproduce its rank file", me)
		}
	})
}

// FuzzRankFile: the decoder is the trust boundary of a KMC restart. Any
// bytes in place of rank 0's file must make Restore and RestoreResharded —
// onto the writer's own grid and merged onto one rank — return a kmc: error
// or succeed, never panic, and a rejected Restore must leave the state as
// it was. The seed corpus is real Save output plus truncated and
// bit-flipped copies of it, and re-sealed files with an unknown occupancy
// code, a NaN density or a negative event count.
func FuzzRankFile(f *testing.F) {
	cfg := rankFileConfig()
	files := saveRankFiles(f, cfg, 4)
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
	f.Add(mutateRankFile(f, good, func(rf *rankFile) { rf.Occ[1] = 9 }))
	f.Add(mutateRankFile(f, good, func(rf *rankFile) { rf.Rho[1] = math.NaN() }))
	f.Add(mutateRankFile(f, good, func(rf *rankFile) { rf.Events = -1 }))
	merged := cfg
	merged.Grid = [3]int{1, 1, 1}

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(op string, err error) bool {
			t.Helper()
			if err != nil && !strings.HasPrefix(err.Error(), "kmc: ") {
				t.Errorf("%s error %q is not a kmc: error", op, err)
			}
			return err == nil
		}
		// Random bytes almost never pass the checksum, so a re-sealed copy
		// of each input takes them on to the value checks.
		for _, file := range [][]byte{data, reseal(data)} {
			input := [][]byte{file, files[1]}
			runWorld(t, cfg, func(st *State) {
				if st.Comm.Rank() == 0 {
					before := stateOf(st)
					if !check("Restore", st.Restore(bytes.NewReader(file))) && !reflect.DeepEqual(before, stateOf(st)) {
						t.Errorf("rejected Restore modified the state")
					}
				}
				check("RestoreResharded onto the writer's grid", st.RestoreResharded(shardsOf(t, st.L, cfg.Grid, input)))
			})
			runWorld(t, merged, func(st *State) {
				check("RestoreResharded onto one rank", st.RestoreResharded(shardsOf(t, st.L, cfg.Grid, input)))
			})
		}
	})
}

// TestRankFileIntegrity: a damaged rank file — cut at any of its first 64
// bytes, at half and one byte short, or with one bit flipped in the header,
// the Occ section, the Rho section or the checksum — is refused by Restore
// with a kmc: error, and the state is left as it was.
func TestRankFileIntegrity(t *testing.T) {
	cfg := rankFileConfig()
	good := saveRankFiles(t, cfg, 4)[0]
	sites := (len(good) - headBytes - 4) / 9
	var bad [][]byte
	for n := 0; n <= 64; n++ {
		bad = append(bad, good[:n])
	}
	bad = append(bad, good[:len(good)/2], good[:len(good)-1])
	for _, at := range []int{20, headBytes + sites/2, headBytes + sites + 8*(sites/2) + 6, len(good) - 1} {
		flipped := bytes.Clone(good)
		flipped[at] ^= 0x10
		bad = append(bad, flipped)
	}
	runWorld(t, cfg, func(st *State) {
		if st.Comm.Rank() != 0 {
			return
		}
		before := stateOf(st)
		for _, file := range bad {
			if err := st.Restore(bytes.NewReader(file)); err == nil || !strings.HasPrefix(err.Error(), "kmc: ") {
				t.Errorf("Restore of a damaged %d-byte file: error %v, want a kmc: error", len(file), err)
			}
		}
		if !reflect.DeepEqual(before, stateOf(st)) {
			t.Errorf("refused Restore modified the state")
		}
	})
}

// TestSaveAllocatesNoRankSizedBuffer: past the first Save, which grows the
// state's file buffer, a Save allocates the same at 8³ and at 16³ cells
// (nothing, measured), and nothing that grows with the rank.
func TestSaveAllocatesNoRankSizedBuffer(t *testing.T) {
	var allocs []float64
	for _, cells := range []int{8, 16} {
		cfg := testConfig()
		cfg.Cells = [3]int{cells, cells, cells}
		runWorld(t, cfg, func(st *State) {
			st.Cycle()
			if err := st.Save(io.Discard); err != nil {
				t.Errorf("save: %v", err)
			}
			allocs = append(allocs, testing.AllocsPerRun(20, func() { st.Save(io.Discard) }))
		})
	}
	t.Logf("allocations per Save: %v", allocs)
	if allocs[0] != allocs[1] || allocs[1] > 2 {
		t.Errorf("allocations per Save at 8³ and 16³ cells: %v, want the same, at most 2", allocs)
	}
}
