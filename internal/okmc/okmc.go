// Package okmc implements an object Kinetic Monte Carlo model of vacancy
// cluster evolution — the alternative KMC formulation the paper situates
// AKMC against ("There are several different KMC approaches, such as
// atomistic KMC (AKMC) and object KMC (OKMC). We choose to use AKMC...",
// citing MMonCa and the GPU OKMC of Jiménez & Ortiz).
//
// Where AKMC tracks every lattice site, OKMC tracks *objects*: vacancy
// clusters with a position and a size. Events are
//
//   - diffusion: a cluster hops a lattice step; mobility decreases with
//     size, D(n) = D0 · n^(-q);
//   - emission: a cluster of size n ≥ 2 emits a monomer, with an activation
//     energy of the binding energy plus the migration barrier;
//   - absorption: two objects closer than the sum of their capture radii
//     coalesce (applied after every move).
//
// The engine is serial (the paper parallelizes only the AKMC); its role in
// this repository is cross-validation: at matching physics both engines
// must show the same qualitative coarsening — monomers disappearing into
// growing clusters — which the comparison test asserts.
package okmc

import (
	"fmt"
	"math"
	"sort"

	"mdkmc/internal/lattice"
	"mdkmc/internal/rng"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// Object is one vacancy cluster.
type Object struct {
	ID   int
	Pos  vec.V // center, Å (periodic box coordinates)
	Size int   // number of vacancies
}

// Config describes an OKMC run.
type Config struct {
	Cells       [3]int
	A           float64
	Temperature float64

	Nu float64 // attempt frequency (1/s)
	Em float64 // monomer migration barrier (eV)
	// MobilityExponent q in D(n) = D0 n^-q; larger clusters are slower.
	MobilityExponent float64
	// BindingEnergy of a monomer to a cluster (eV); emission activation is
	// Em + BindingEnergy.
	BindingEnergy float64
	// CaptureRadiusFactor scales the capture radius r(n) = f·a·n^(1/3).
	CaptureRadiusFactor float64

	Seed uint64
}

// DefaultConfig mirrors the AKMC defaults where the parameters correspond.
func DefaultConfig() Config {
	return Config{
		Cells:               [3]int{12, 12, 12},
		A:                   units.LatticeConstantFe,
		Temperature:         600,
		Nu:                  units.AttemptFrequency,
		Em:                  units.VacancyMigrationEnergyFe,
		MobilityExponent:    1.0,
		BindingEnergy:       0.25,
		CaptureRadiusFactor: 0.65,
		Seed:                1,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	for d := 0; d < 3; d++ {
		if c.Cells[d] <= 0 {
			return fmt.Errorf("okmc: non-positive cells %v", c.Cells)
		}
	}
	if c.A <= 0 || c.Temperature <= 0 || c.Nu <= 0 || c.Em <= 0 {
		return fmt.Errorf("okmc: non-positive physical parameter")
	}
	if c.MobilityExponent < 0 || c.BindingEnergy < 0 || c.CaptureRadiusFactor <= 0 {
		return fmt.Errorf("okmc: invalid cluster parameters")
	}
	return nil
}

// Sim is the OKMC simulation state.
type Sim struct {
	Cfg     Config
	L       *lattice.Lattice
	Objects []Object
	Time    float64
	Events  int

	kBT    float64
	nextID int
	rng    *rng.Source
	hop    float64 // hop distance: the 1NN spacing
}

// New builds a simulation with the given initial monomer positions.
func New(cfg Config, monomers []vec.V) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		Cfg: cfg,
		L:   lattice.New(cfg.Cells[0], cfg.Cells[1], cfg.Cells[2], cfg.A),
		kBT: units.Boltzmann * cfg.Temperature,
		rng: rng.New(cfg.Seed).Derive(0x0BC),
	}
	s.hop = s.L.FirstNeighborDistance()
	for _, p := range monomers {
		s.Objects = append(s.Objects, Object{ID: s.nextID, Pos: s.wrap(p), Size: 1})
		s.nextID++
	}
	s.coalesceAll()
	return s, nil
}

// Resume rebuilds a simulation from a previously recorded population — the
// campaign driver's checkpoint path. The objects are adopted verbatim
// (positions wrapped defensively), the clock and event counter restored, and
// nextID set past the largest recorded ID so later emissions never collide.
// The RNG stream is NOT part of the record: campaign restarts are made
// deterministic by ReseedStream'ing a per-iteration stream before stepping.
func Resume(cfg Config, objects []Object, time float64, events int) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if time < 0 || events < 0 {
		return nil, fmt.Errorf("okmc: negative clock %v or event count %d", time, events)
	}
	s := &Sim{
		Cfg:    cfg,
		L:      lattice.New(cfg.Cells[0], cfg.Cells[1], cfg.Cells[2], cfg.A),
		kBT:    units.Boltzmann * cfg.Temperature,
		rng:    rng.New(cfg.Seed).Derive(0x0BC),
		Time:   time,
		Events: events,
	}
	s.hop = s.L.FirstNeighborDistance()
	for _, o := range objects {
		if o.Size <= 0 {
			return nil, fmt.Errorf("okmc: recorded object %d has size %d", o.ID, o.Size)
		}
		o.Pos = s.wrap(o.Pos)
		s.Objects = append(s.Objects, o)
		if o.ID >= s.nextID {
			s.nextID = o.ID + 1
		}
	}
	return s, nil
}

// ReseedStream rebases the simulation's RNG onto a stream derived from the
// config seed and the given logical coordinates (e.g. a campaign iteration
// index). A resumed campaign reseeds before each iteration's anneal, so the
// continued trajectory is a pure function of (seed, iteration, population)
// and never of how many draws an interrupted run had consumed.
func (s *Sim) ReseedStream(words ...uint64) {
	s.rng = rng.New(s.Cfg.Seed).Derive(append([]uint64{0x0BC}, words...)...)
}

// Inject adds one monomer per position (the new MD-generated vacancies of a
// campaign iteration) and applies capture exhaustively, so monomers landing
// inside an existing cluster's reach are absorbed immediately. It returns
// the number of vacancies added (always len(points); absorption conserves
// the vacancy count).
func (s *Sim) Inject(points []vec.V) int {
	for _, p := range points {
		s.Objects = append(s.Objects, Object{ID: s.nextID, Pos: s.wrap(p), Size: 1})
		s.nextID++
		s.coalesceAround(len(s.Objects) - 1)
	}
	return len(points)
}

// NewRandom seeds n monomers at deterministic random lattice sites.
func NewRandom(cfg Config, n int) (*Sim, error) {
	l := lattice.New(cfg.Cells[0], cfg.Cells[1], cfg.Cells[2], cfg.A)
	src := rng.New(cfg.Seed).Derive(0x5EED)
	seen := map[int]bool{}
	var pts []vec.V
	for len(pts) < n {
		g := src.Intn(l.NumSites())
		if !seen[g] {
			seen[g] = true
			pts = append(pts, l.Position(l.Coord(g)))
		}
	}
	return New(cfg, pts)
}

func (s *Sim) wrap(p vec.V) vec.V {
	side := s.L.Side()
	p.X -= side.X * math.Floor(p.X/side.X)
	p.Y -= side.Y * math.Floor(p.Y/side.Y)
	p.Z -= side.Z * math.Floor(p.Z/side.Z)
	return p
}

// captureRadius of a cluster of n vacancies.
func (s *Sim) captureRadius(n int) float64 {
	return s.Cfg.CaptureRadiusFactor * s.Cfg.A * math.Cbrt(float64(n))
}

// diffusionRate returns the hop rate of a cluster of size n.
func (s *Sim) diffusionRate(n int) float64 {
	d0 := s.Cfg.Nu * math.Exp(-s.Cfg.Em/s.kBT)
	return d0 * math.Pow(float64(n), -s.Cfg.MobilityExponent)
}

// emissionRate returns the monomer-emission rate of a cluster of size n.
func (s *Sim) emissionRate(n int) float64 {
	if n < 2 {
		return 0
	}
	// Surface sites emit; scale with n^(2/3).
	return s.Cfg.Nu * math.Pow(float64(n), 2.0/3.0) *
		math.Exp(-(s.Cfg.Em+s.Cfg.BindingEnergy)/s.kBT)
}

// TotalVacancies counts vacancies across all objects (conserved).
func (s *Sim) TotalVacancies() int {
	n := 0
	for _, o := range s.Objects {
		n += o.Size
	}
	return n
}

// Monomers counts size-1 objects.
func (s *Sim) Monomers() int {
	n := 0
	for _, o := range s.Objects {
		if o.Size == 1 {
			n++
		}
	}
	return n
}

// MeanSize returns the average cluster size.
func (s *Sim) MeanSize() float64 {
	if len(s.Objects) == 0 {
		return 0
	}
	return float64(s.TotalVacancies()) / float64(len(s.Objects))
}

// Step executes one BKL event (diffusion or emission) and the subsequent
// coalescence, advancing the residence-time clock. It returns false when no
// event is possible.
func (s *Sim) Step() bool {
	if len(s.Objects) == 0 {
		return false
	}
	// Rate catalogue: 2 channels per object.
	type channel struct {
		obj  int
		emit bool
		rate float64
	}
	channels := make([]channel, 0, 2*len(s.Objects))
	total := 0.0
	for i, o := range s.Objects {
		if r := s.diffusionRate(o.Size); r > 0 {
			channels = append(channels, channel{i, false, r})
			total += r
		}
		if r := s.emissionRate(o.Size); r > 0 {
			channels = append(channels, channel{i, true, r})
			total += r
		}
	}
	if total <= 0 {
		return false
	}
	s.Time += s.rng.Exp() / total
	u := s.rng.Float64() * total
	acc := 0.0
	chosen := channels[len(channels)-1]
	for _, ch := range channels {
		acc += ch.rate
		if u < acc {
			chosen = ch
			break
		}
	}
	if chosen.emit {
		s.emit(chosen.obj)
	} else {
		s.diffuse(chosen.obj)
	}
	s.Events++
	return true
}

// diffuse moves an object one hop in a random 1NN direction.
func (s *Sim) diffuse(i int) {
	dir := bccDirections[s.rng.Intn(len(bccDirections))]
	s.Objects[i].Pos = s.wrap(s.Objects[i].Pos.Add(dir.Scale(s.hop / math.Sqrt(3))))
	s.coalesceAround(i)
}

// emit splits a monomer off the cluster, placing it just outside the
// capture radius in a random direction.
func (s *Sim) emit(i int) {
	o := &s.Objects[i]
	dir := bccDirections[s.rng.Intn(len(bccDirections))]
	dist := s.captureRadius(o.Size) + s.captureRadius(1) + 0.6*s.Cfg.A
	mon := Object{ID: s.nextID, Size: 1, Pos: s.wrap(o.Pos.Add(dir.Scale(dist / math.Sqrt(3))))}
	s.nextID++
	o.Size-- // n >= 2 guaranteed by emissionRate, so the remainder is >= 1
	s.Objects = append(s.Objects, mon)
	s.coalesceAround(len(s.Objects) - 1)
}

// bccDirections are the eight 1NN hop directions.
var bccDirections = []vec.V{
	{X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: -1}, {X: 1, Y: -1, Z: 1}, {X: 1, Y: -1, Z: -1},
	{X: -1, Y: 1, Z: 1}, {X: -1, Y: 1, Z: -1}, {X: -1, Y: -1, Z: 1}, {X: -1, Y: -1, Z: -1},
}

// coalesceAround merges object i with anything within capture range,
// repeating until no merge applies.
func (s *Sim) coalesceAround(i int) {
	for {
		merged := false
		oi := s.Objects[i]
		for j := 0; j < len(s.Objects); j++ {
			if j == i {
				continue
			}
			oj := s.Objects[j]
			reach := s.captureRadius(oi.Size) + s.captureRadius(oj.Size)
			if s.L.MinImage(oi.Pos, oj.Pos).Norm() <= reach {
				s.merge(i, j)
				if j < i {
					i--
				}
				merged = true
				break
			}
		}
		if !merged {
			return
		}
	}
}

// coalesceAll applies capture exhaustively (used at initialization).
func (s *Sim) coalesceAll() {
	for i := 0; i < len(s.Objects); i++ {
		s.coalesceAround(i)
	}
}

// merge absorbs object j into object i (size-weighted center of mass).
func (s *Sim) merge(i, j int) {
	oi, oj := s.Objects[i], s.Objects[j]
	w := float64(oj.Size) / float64(oi.Size+oj.Size)
	d := s.L.MinImage(oj.Pos, oi.Pos)
	s.Objects[i].Pos = s.wrap(oi.Pos.Add(d.Scale(w)))
	s.Objects[i].Size = oi.Size + oj.Size
	s.Objects = append(s.Objects[:j], s.Objects[j+1:]...)
}

// String summarizes the population.
func (s *Sim) String() string {
	sizes := make([]int, 0, len(s.Objects))
	for _, o := range s.Objects {
		sizes = append(sizes, o.Size)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if len(sizes) > 8 {
		sizes = sizes[:8]
	}
	return fmt.Sprintf("t=%.3gs objects=%d vacancies=%d monomers=%d mean=%.2f top=%v",
		s.Time, len(s.Objects), s.TotalVacancies(), s.Monomers(), s.MeanSize(), sizes)
}
