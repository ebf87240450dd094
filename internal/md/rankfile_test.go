package md

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/neighbor"
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
	Store     neighbor.Snapshot
	StepCount int
	LastPE    float64
}

func stateOf(r *Rank) rankState {
	return rankState{Store: r.Store.Snapshot(), StepCount: r.StepCount, LastPE: r.LastPE}
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

// FuzzRankFile: the decoder is the trust boundary of an MD restart. Any
// bytes in place of rank 0's file must make Restore and RestoreResharded —
// onto the writer's own grid and merged onto one rank — return an md: error
// or succeed, never panic, and a rejected Restore must leave the rank as it
// was. The seed corpus is real Save output plus truncated and bit-flipped
// copies of it.
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
		input := [][]byte{data, files[1]}
		runWorld(t, cfg, func(r *Rank) {
			if r.Comm.Rank() == 0 {
				before := stateOf(r)
				if !check("Restore", r.Restore(bytes.NewReader(data))) && !reflect.DeepEqual(before, stateOf(r)) {
					t.Errorf("rejected Restore modified the rank")
				}
			}
			check("RestoreResharded onto the writer's grid", r.RestoreResharded(shardsOf(t, r.L, cfg.Grid, input)))
		})
		runWorld(t, merged, func(r *Rank) {
			check("RestoreResharded onto one rank", r.RestoreResharded(shardsOf(t, r.L, cfg.Grid, input)))
		})
	})
}
