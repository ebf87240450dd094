package couple

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"mdkmc/internal/rng"
)

// Spectrum is a discrete PKA recoil-energy distribution: the campaign driver
// samples each cascade's damage energy from it. Lines of the source file are
// "energy_eV [weight]" (weight defaults to 1); '#' starts a comment. Weights
// need not be normalized.
type Spectrum struct {
	Energies []float64 // recoil energies, eV
	Weights  []float64 // relative probabilities, same length

	cum []float64 // cumulative weights, cum[len-1] == total
}

// ReadSpectrum parses a spectrum from r. At least one line is required, every
// energy must be positive and finite, every weight non-negative and finite,
// and the total weight positive.
func ReadSpectrum(r io.Reader) (*Spectrum, error) {
	s := &Spectrum{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) > 2 {
			return nil, fmt.Errorf("spectrum line %d: want \"energy [weight]\", got %q", line, sc.Text())
		}
		e, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("spectrum line %d: energy: %v", line, err)
		}
		if !(e > 0) || math.IsInf(e, 0) {
			return nil, fmt.Errorf("spectrum line %d: energy %v is not positive and finite", line, e)
		}
		w := 1.0
		if len(fields) == 2 {
			w, err = strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("spectrum line %d: weight: %v", line, err)
			}
			if w < 0 || math.IsInf(w, 0) || math.IsNaN(w) {
				return nil, fmt.Errorf("spectrum line %d: weight %v is not finite and non-negative", line, w)
			}
		}
		s.Energies = append(s.Energies, e)
		s.Weights = append(s.Weights, w)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("spectrum: %v", err)
	}
	if err := s.init(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadSpectrum reads a spectrum file from disk.
func LoadSpectrum(path string) (*Spectrum, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadSpectrum(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// FixedSpectrum is the single-line spectrum of a fixed-energy campaign — the
// fallback when no spectrum file is given.
func FixedSpectrum(energy float64) (*Spectrum, error) {
	s := &Spectrum{Energies: []float64{energy}, Weights: []float64{1}}
	if err := s.init(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Spectrum) init() error {
	if len(s.Energies) == 0 {
		return fmt.Errorf("spectrum: no entries")
	}
	if len(s.Weights) != len(s.Energies) {
		return fmt.Errorf("spectrum: %d energies, %d weights", len(s.Energies), len(s.Weights))
	}
	s.cum = make([]float64, len(s.Weights))
	total := 0.0
	for i, w := range s.Weights {
		e := s.Energies[i]
		if !(e > 0) || math.IsInf(e, 0) {
			return fmt.Errorf("spectrum: energy %v is not positive and finite", e)
		}
		if w < 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			return fmt.Errorf("spectrum: weight %v is not finite and non-negative", w)
		}
		total += w
		s.cum[i] = total
	}
	if !(total > 0) || math.IsInf(total, 0) {
		return fmt.Errorf("spectrum: total weight %v is not positive and finite", total)
	}
	return nil
}

// Digest returns a short stable hash of the spectrum's entries, folded into
// the campaign config hash so a restart with a different spectrum file is
// refused.
func (s *Spectrum) Digest() string {
	h := sha256.New()
	for i := range s.Energies {
		fmt.Fprintf(h, "%v %v\n", s.Energies[i], s.Weights[i])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// sample maps one uniform draw u in [0,1) to an energy by inverting the
// cumulative weight table.
func (s *Spectrum) sample(u float64) float64 {
	total := s.cum[len(s.cum)-1]
	i := sort.SearchFloat64s(s.cum, u*total)
	// SearchFloat64s finds the first cum[i] >= u*total; entries with zero
	// weight have cum[i] == cum[i-1] and are never selected because the
	// search lands on the first index of the run, whose weight put it there.
	for i < len(s.cum)-1 && s.Weights[i] == 0 {
		i++
	}
	if i >= len(s.cum) {
		i = len(s.cum) - 1
	}
	return s.Energies[i]
}

// sampler draws energies from a spectrum while counting the uniform draws it
// consumes. Each Sample consumes EXACTLY one Float64 from the stream (the
// inversion never rejects), so the cursor equals the number of samples and a
// restart replays the stream by fast-forwarding Cursor draws.
type sampler struct {
	spec   *Spectrum
	src    *rng.Source
	Cursor uint64
}

// newSampler derives the spectrum stream for a campaign seed and
// fast-forwards it by cursor draws (0 for a fresh run).
func newSampler(spec *Spectrum, seed uint64, cursor uint64) *sampler {
	src := rng.New(seed).Derive(0x5BEC)
	for i := uint64(0); i < cursor; i++ {
		src.Float64()
	}
	return &sampler{spec: spec, src: src, Cursor: cursor}
}

// Sample draws the next recoil energy, advancing the cursor by one.
func (sa *sampler) Sample() float64 {
	sa.Cursor++
	return sa.spec.sample(sa.src.Float64())
}
