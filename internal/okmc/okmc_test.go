package okmc

import (
	"strings"
	"testing"

	"mdkmc/internal/vec"
)

// largestCluster returns the maximum object size.
func largestCluster(s *Sim) int {
	max := 0
	for _, o := range s.Objects {
		if o.Size > max {
			max = o.Size
		}
	}
	return max
}

// sizeHistogram returns cluster count by size.
func sizeHistogram(s *Sim) map[int]int {
	h := map[int]int{}
	for _, o := range s.Objects {
		h[o.Size]++
	}
	return h
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Cells[1] = 0 },
		func(c *Config) { c.A = 0 },
		func(c *Config) { c.Temperature = -1 },
		func(c *Config) { c.Nu = 0 },
		func(c *Config) { c.Em = 0 },
		func(c *Config) { c.MobilityExponent = -1 },
		func(c *Config) { c.CaptureRadiusFactor = 0 },
	}
	for i, mutate := range bads {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestVacancyConservation(t *testing.T) {
	s, err := NewRandom(DefaultConfig(), 40)
	if err != nil {
		t.Fatal(err)
	}
	want := s.TotalVacancies() // initial coalescence may merge, not destroy
	if want != 40 {
		t.Fatalf("initial vacancies %d, want 40", want)
	}
	for i := 0; i < 3000; i++ {
		if !s.Step() {
			t.Fatalf("no event possible at step %d", i)
		}
		if got := s.TotalVacancies(); got != want {
			t.Fatalf("step %d: vacancies %d, want %d", i, got, want)
		}
	}
	if s.Events != 3000 {
		t.Errorf("event count %d", s.Events)
	}
}

func TestTimeAdvances(t *testing.T) {
	s, err := NewRandom(DefaultConfig(), 10)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i := 0; i < 100; i++ {
		s.Step()
		if s.Time <= prev {
			t.Fatalf("time not increasing at event %d", i)
		}
		prev = s.Time
	}
}

func TestAdjacentMonomersCoalesceAtInit(t *testing.T) {
	cfg := DefaultConfig()
	// Two monomers within the combined capture radius.
	a := vec.V{X: 10, Y: 10, Z: 10}
	b := a.Add(vec.V{X: cfg.CaptureRadiusFactor * cfg.A * 1.5})
	s, err := New(cfg, []vec.V{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Objects) != 1 || s.Objects[0].Size != 2 {
		t.Fatalf("objects %+v, want one dimer", s.Objects)
	}
	if s.TotalVacancies() != 2 {
		t.Errorf("vacancies %d", s.TotalVacancies())
	}
}

func TestCoarsening(t *testing.T) {
	// The headline OKMC behaviour: monomers are absorbed into growing
	// clusters, so the object count falls and the mean size grows.
	cfg := DefaultConfig()
	cfg.Cells = [3]int{10, 10, 10}
	s, err := NewRandom(cfg, 60)
	if err != nil {
		t.Fatal(err)
	}
	objects0 := len(s.Objects)
	mean0 := s.MeanSize()
	for i := 0; i < 20000 && len(s.Objects) > 1; i++ {
		s.Step()
	}
	if len(s.Objects) >= objects0 {
		t.Errorf("no coarsening: %d -> %d objects", objects0, len(s.Objects))
	}
	if s.MeanSize() <= mean0 {
		t.Errorf("mean size did not grow: %.2f -> %.2f", mean0, s.MeanSize())
	}
	if largestCluster(s) < 3 {
		t.Errorf("largest cluster %d after coarsening", largestCluster(s))
	}
}

func TestMobilityDecreasesWithSize(t *testing.T) {
	s, _ := NewRandom(DefaultConfig(), 5)
	if !(s.diffusionRate(1) > s.diffusionRate(4) && s.diffusionRate(4) > s.diffusionRate(20)) {
		t.Errorf("diffusion rate not decreasing with size")
	}
	if s.emissionRate(1) != 0 {
		t.Errorf("monomer has emission rate")
	}
	if s.emissionRate(8) <= s.emissionRate(2) {
		t.Errorf("emission rate should grow with surface")
	}
	// Emission is much rarer than diffusion (binding energy penalty).
	if s.emissionRate(4) >= s.diffusionRate(4) {
		t.Errorf("emission faster than diffusion at 600K")
	}
}

func TestEmissionConservesAndSeparates(t *testing.T) {
	cfg := DefaultConfig()
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Objects = append(s.Objects, Object{ID: 0, Pos: vec.V{X: 15, Y: 15, Z: 15}, Size: 5})
	s.nextID = 1
	s.emit(0)
	if s.TotalVacancies() != 5 {
		t.Fatalf("vacancies %d after emission", s.TotalVacancies())
	}
	if len(s.Objects) != 2 {
		t.Fatalf("%d objects after emission (monomer re-captured?)", len(s.Objects))
	}
	if s.Objects[0].Size != 4 || s.Objects[1].Size != 1 {
		t.Errorf("sizes %d/%d", s.Objects[0].Size, s.Objects[1].Size)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		s, err := NewRandom(DefaultConfig(), 30)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			s.Step()
		}
		return s.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs diverged:\n%s\n%s", a, b)
	}
}

func TestStringAndHistogram(t *testing.T) {
	s, _ := NewRandom(DefaultConfig(), 12)
	str := s.String()
	if !strings.Contains(str, "vacancies=12") {
		t.Errorf("summary %q", str)
	}
	h := sizeHistogram(s)
	n := 0
	for size, count := range h {
		n += size * count
	}
	if n != 12 {
		t.Errorf("histogram sums to %d", n)
	}
}

func TestEmptySimulation(t *testing.T) {
	s, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Step() {
		t.Errorf("empty simulation produced an event")
	}
	if s.MeanSize() != 0 || largestCluster(s) != 0 {
		t.Errorf("empty stats non-zero")
	}
}

// TestInjectConservesAndAbsorbs: injected monomers either stand alone or are
// absorbed by an in-range cluster; the vacancy count grows by exactly the
// injected count either way.
func TestInjectConservesAndAbsorbs(t *testing.T) {
	cfg := DefaultConfig()
	s, err := New(cfg, []vec.V{{X: 10, Y: 10, Z: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Inject([]vec.V{
		{X: 10.5, Y: 10, Z: 10}, // inside capture range: absorbed
		{X: 20, Y: 20, Z: 20},   // far: stands alone
		{X: -1, Y: 5, Z: 5},     // out of box: wrapped, stands alone
	}); n != 3 {
		t.Fatalf("Inject reported %d, want 3", n)
	}
	if tot := s.TotalVacancies(); tot != 4 {
		t.Errorf("total vacancies %d, want 4", tot)
	}
	if len(s.Objects) != 3 {
		t.Errorf("%d objects, want 3 (one absorption)", len(s.Objects))
	}
	for _, o := range s.Objects {
		w := s.wrap(o.Pos)
		if w != o.Pos {
			t.Errorf("object %d position %v not wrapped", o.ID, o.Pos)
		}
	}
}

// TestResumeContinuesIdentically: Resume + ReseedStream reproduces the
// trajectory of an uninterrupted run that reseeded at the same point — the
// campaign restart contract.
func TestResumeContinuesIdentically(t *testing.T) {
	cfg := DefaultConfig()
	seeds := []vec.V{{X: 3, Y: 3, Z: 3}, {X: 17, Y: 5, Z: 9}, {X: 9, Y: 20, Z: 14}, {X: 25, Y: 25, Z: 2}}

	run := func(resume bool) *Sim {
		s, err := New(cfg, seeds)
		if err != nil {
			t.Fatal(err)
		}
		s.ReseedStream(1)
		for i := 0; i < 40; i++ {
			s.Step()
		}
		if resume {
			r, err := Resume(cfg, append([]Object(nil), s.Objects...), s.Time, s.Events)
			if err != nil {
				t.Fatal(err)
			}
			s = r
		}
		s.ReseedStream(2)
		for i := 0; i < 40; i++ {
			s.Step()
		}
		return s
	}

	a, b := run(false), run(true)
	if a.Time != b.Time || a.Events != b.Events {
		t.Fatalf("clock diverged: (%v, %d) vs (%v, %d)", a.Time, a.Events, b.Time, b.Events)
	}
	if len(a.Objects) != len(b.Objects) {
		t.Fatalf("object counts %d vs %d", len(a.Objects), len(b.Objects))
	}
	for i := range a.Objects {
		if a.Objects[i] != b.Objects[i] {
			t.Fatalf("object %d diverged: %+v vs %+v", i, a.Objects[i], b.Objects[i])
		}
	}
}

// TestResumeValidates: corrupt records are refused, and nextID continues
// past the largest resumed ID.
func TestResumeValidates(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Resume(cfg, []Object{{ID: 0, Size: 0}}, 0, 0); err == nil {
		t.Error("zero-size object accepted")
	}
	if _, err := Resume(cfg, nil, -1, 0); err == nil {
		t.Error("negative clock accepted")
	}
	if _, err := Resume(cfg, nil, 0, -1); err == nil {
		t.Error("negative event count accepted")
	}
	s, err := Resume(cfg, []Object{{ID: 7, Pos: vec.V{X: 1, Y: 1, Z: 1}, Size: 2}}, 1e-3, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.Inject([]vec.V{{X: 20, Y: 20, Z: 20}})
	if got := s.Objects[len(s.Objects)-1].ID; got != 8 {
		t.Errorf("next ID %d, want 8 (past the resumed 7)", got)
	}
}
