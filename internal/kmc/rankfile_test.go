package kmc

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

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
// bit-flipped copies of it.
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
		input := [][]byte{data, files[1]}
		runWorld(t, cfg, func(st *State) {
			if st.Comm.Rank() == 0 {
				before := stateOf(st)
				if !check("Restore", st.Restore(bytes.NewReader(data))) && !reflect.DeepEqual(before, stateOf(st)) {
					t.Errorf("rejected Restore modified the state")
				}
			}
			check("RestoreResharded onto the writer's grid", st.RestoreResharded(shardsOf(t, st.L, cfg.Grid, input)))
		})
		runWorld(t, merged, func(st *State) {
			check("RestoreResharded onto one rank", st.RestoreResharded(shardsOf(t, st.L, cfg.Grid, input)))
		})
	})
}
