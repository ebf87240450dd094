// Package rng provides the deterministic, splittable pseudo-random number
// generation used by every stochastic component of the simulation.
//
// Reproducibility across process counts is a hard requirement: the
// correctness property "on-demand and traditional KMC communication produce
// identical trajectories" (DESIGN.md §6) only holds if every rank and every
// sector draws from a stream that depends solely on logical coordinates
// (seed, rank, sector, step) and never on goroutine scheduling. The package
// therefore exposes explicit stream derivation rather than a global source.
//
// The generator is xoshiro256** seeded through splitmix64, the initialization
// recommended by the xoshiro authors; both are implemented here to keep the
// module dependency-free.
package rng

import "math"

// splitmix64 advances the state and returns the next output. It is used both
// as a seeding mixer and as the stream-derivation hash.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes an arbitrary list of 64-bit words into a single seed. It is the
// deterministic stream-derivation function: Mix(seed, rank, sector, step)
// yields the same value on every run and every process layout.
func Mix(words ...uint64) uint64 {
	state := absorb(mixInit, words)
	return splitmix64(&state)
}

const mixInit uint64 = 0x243f6a8885a308d3 // pi fractional bits

// absorb folds words into a Mix state.
func absorb(state uint64, words []uint64) uint64 {
	for _, w := range words {
		state ^= w
		_ = splitmix64(&state)
	}
	return state
}

// Source is a xoshiro256** generator. The zero value is not usable; create
// sources with New or Derive.
type Source struct {
	s [4]uint64
	// cached second Gaussian from Box-Muller
	gauss   float64
	hasGaus bool
}

// New returns a Source seeded from the given seed via splitmix64.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Derive returns a new Source whose stream is a deterministic function of
// the parent seed and the given logical coordinates. Typical use:
//
//	r := rng.New(cfg.Seed).Derive(uint64(rank), uint64(sector))
func (s *Source) Derive(words ...uint64) *Source {
	src := s.Fork(words...)
	return &src
}

// Fork is Derive returning the Source by value: the same stream, with
// nothing on the heap when the result stays a local — the per-sector,
// per-cycle streams of the KMC inner loop.
func (s *Source) Fork(words ...uint64) Source {
	state := absorb(absorb(mixInit, s.s[:]), words)
	var src Source
	src.Reseed(splitmix64(&state))
	return src
}

// Reseed reinitializes the source from seed.
func (s *Source) Reseed(seed uint64) {
	state := seed
	for i := range s.s {
		s.s[i] = splitmix64(&state)
	}
	// xoshiro requires a nonzero state; splitmix64 makes all-zeros
	// astronomically unlikely, but guard anyway.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	s.hasGaus = false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1); never exactly zero, which
// makes it safe as the argument of log() in exponential sampling.
func (s *Source) Float64Open() float64 {
	for {
		v := s.Float64()
		if v > 0 {
			return v
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// Norm returns a standard Gaussian variate (Box-Muller, cached pair).
func (s *Source) Norm() float64 {
	if s.hasGaus {
		s.hasGaus = false
		return s.gauss
	}
	u1 := s.Float64Open()
	u2 := s.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	theta := 2 * math.Pi * u2
	s.gauss = r * math.Sin(theta)
	s.hasGaus = true
	return r * math.Cos(theta)
}

// Exp returns an exponentially distributed variate with rate 1.
func (s *Source) Exp() float64 { return -math.Log(s.Float64Open()) }

// Perm fills dst with a uniform random permutation of 0..len(dst)-1.
func (s *Source) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
