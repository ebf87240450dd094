package md

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

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

// mutateRankFile decodes a rank file, applies mutate and encodes it again.
func mutateRankFile(t testing.TB, file []byte, mutate func(cp *checkpoint)) []byte {
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(file)).Decode(&cp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	mutate(&cp)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(cp); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return out.Bytes()
}

// FuzzRankFile: the decoder is the trust boundary of an MD restart. Any
// bytes in place of rank 0's file must make Restore and RestoreResharded —
// onto the writer's own grid and merged onto one rank — return an md: error
// or succeed, never panic, and a rejected Restore must leave the rank as it
// was. The seed corpus is real Save output plus truncated and bit-flipped
// copies of it, and files with an unknown species or a NaN position.
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
	f.Add(mutateRankFile(f, good, func(cp *checkpoint) { cp.Type[1] = 9 }))
	f.Add(mutateRankFile(f, good, func(cp *checkpoint) { cp.R[1].X = math.NaN() }))
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
// non-zero). The whole-store file (ghost shell, ρ, the run-away pool) took
// 141 B; the owned records alone take ≈ 98.
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
		if perAtom > 110 {
			t.Errorf("rank file holds %.1f B/atom, want at most 110", perAtom)
		}
	})
}
