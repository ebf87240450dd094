package kmc

import (
	"math"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
)

// initRhoRef is the full scan initRho replaced: every interior site summed
// over its whole shell, the outer halo shell left zero. It is the oracle the
// perfect-crystal initialization is bit-identical to.
func initRhoRef(st *State) []float64 {
	rho := make([]float64, len(st.Occ))
	ex, ey, ez := st.Box.Ext(0), st.Box.Ext(1), st.Box.Ext(2)
	for lz := st.reach; lz < ez-st.reach; lz++ {
		for ly := st.reach; ly < ey-st.reach; ly++ {
			for lx := st.reach; lx < ex-st.reach; lx++ {
				base := ((lz*ey+ly)*ex + lx) * 2
				for b := 0; b < 2; b++ {
					var sum float64
					for k, d := range st.deltas[b] {
						sum += st.en.shells.fval(st.Occ[base+b+int(d)], b, k)
					}
					rho[base+b] = sum
				}
			}
		}
	}
	return rho
}

// checkRhoBits fails unless every local ρ of st is bitwise the full scan's,
// and returns how many sites differ from the perfect crystal.
func checkRhoBits(t *testing.T, st *State) (defected int) {
	t.Helper()
	want := initRhoRef(st)
	cp := *st
	cp.Occ = make([]uint8, len(st.Occ))
	for i := range cp.Occ {
		cp.Occ[i] = Atom
	}
	bulk := initRhoRef(&cp)
	for i, w := range want {
		if got := st.Rho[i]; math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("rank %d site %d: ρ %v, full scan %v", st.Comm.Rank(), i, got, w)
			return
		}
		if math.Float64bits(w) != math.Float64bits(bulk[i]) {
			defected++
		}
	}
	return defected
}

func TestInitRhoMatchesFullScan(t *testing.T) {
	clustered := func(cfg Config) []int {
		// A void of 3×3×3 cells straddling the periodic x boundary and
		// the rank cut, plus a split divacancy: the debris shape MD hands
		// over.
		l := lattice.New(cfg.Cells[0], cfg.Cells[1], cfg.Cells[2], cfg.A)
		var out []int
		for x := -1; x <= 1; x++ {
			for y := 4; y <= 6; y++ {
				for z := 4; z <= 6; z++ {
					for b := int8(0); b < 2; b++ {
						out = append(out, l.Index(l.Wrap(lattice.Coord{X: int32(x), Y: int32(y), Z: int32(z), B: b})))
					}
				}
			}
		}
		mid := cfg.Cells[0] / 2
		out = append(out, l.Index(lattice.Coord{X: int32(mid - 1), Y: 2, Z: 2}),
			l.Index(lattice.Coord{X: int32(mid), Y: 2, Z: 2}))
		return out
	}
	for _, tc := range []struct {
		name   string
		cfg    func() Config
		images bool // the halo holds periodic images of owned cells
	}{
		{"random vacancies 4e-3", func() Config {
			cfg := testConfig()
			cfg.Cells = [3]int{16, 12, 12}
			cfg.Grid = [3]int{2, 1, 1}
			cfg.VacancyConcentration = 4e-3
			return cfg
		}, false},
		{"Cu 0.5 plus vacancies, every cell summed", func() Config {
			cfg := testConfig()
			cfg.Cells = [3]int{16, 12, 12}
			cfg.Grid = [3]int{2, 1, 1}
			cfg.CuConcentration = 0.5
			cfg.VacancyConcentration = 4e-3
			return cfg
		}, false},
		{"Cu 0.02 plus vacancies, marked cells summed", func() Config {
			cfg := testConfig()
			cfg.Cells = [3]int{16, 12, 12}
			cfg.Grid = [3]int{2, 1, 1}
			cfg.CuConcentration = 0.02
			cfg.VacancyConcentration = 4e-3
			return cfg
		}, false},
		{"clustered vacancies", func() Config {
			cfg := testConfig()
			cfg.Cells = [3]int{16, 12, 12}
			cfg.Grid = [3]int{2, 1, 1}
			cfg.Vacancies = clustered(cfg)
			return cfg
		}, false},
		{"1 rank, periodic images in the halo", func() Config {
			cfg := testConfig()
			cfg.Cells = [3]int{8, 8, 8}
			cfg.VacancyConcentration = 4e-3
			return cfg
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			runWorld(t, cfg, func(st *State) {
				if images := st.Box.Ext(0) > st.L.Nx; images != tc.images {
					t.Errorf("rank %d: extent %d over period %d: periodic images %v, want %v",
						st.Comm.Rank(), st.Box.Ext(0), st.L.Nx, images, tc.images)
				}
				if n := checkRhoBits(t, st); n == 0 {
					t.Errorf("rank %d: no interior site off the perfect crystal: the case checks nothing", st.Comm.Rank())
				}
			})
		})
	}
}

// TestInitRhoMatchesFullScanAfterReshard restores a 2-rank checkpoint onto 1
// rank and a 1-rank one onto 2: the merge recomputes ρ through initRho.
func TestInitRhoMatchesFullScanAfterReshard(t *testing.T) {
	cfg := rankFileConfig()
	cfg.VacancyConcentration = 4e-3
	one := cfg
	one.Grid = [3]int{1, 1, 1}
	for _, tc := range []struct {
		name     string
		from, to Config
	}{{"2 to 1", cfg, one}, {"1 to 2", one, cfg}} {
		t.Run(tc.name, func(t *testing.T) {
			files := saveRankFiles(t, tc.from, 8)
			mpi.NewWorld(tc.to.Ranks()).Run(func(c *mpi.Comm) {
				st, err := NewState(tc.to, c)
				if err != nil {
					panic(err)
				}
				if err := st.RestoreResharded(shardsOf(t, st.L, tc.from.Grid, files)); err != nil {
					t.Errorf("rank %d reshard: %v", c.Rank(), err)
					return
				}
				if st.Cycles != 8 {
					t.Errorf("rank %d: restored %d cycles, want 8", c.Rank(), st.Cycles)
				}
				checkRhoBits(t, st)
			})
		})
	}
}
