package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 equal draws", same)
	}
}

func TestDeriveIsDeterministicAndIndependent(t *testing.T) {
	parent := New(7)
	c1 := parent.Derive(3, 5)
	parent2 := New(7)
	c2 := parent2.Derive(3, 5)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("derived streams with same coordinates diverged")
		}
	}
	// Different coordinates give a different stream.
	d := New(7).Derive(3, 6)
	e := New(7).Derive(3, 5)
	diff := false
	for i := 0; i < 16; i++ {
		if d.Uint64() != e.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Errorf("derived streams with different coordinates coincide")
	}
}

func TestDeriveIndependentOfDrawPosition(t *testing.T) {
	// Deriving must depend on the seed state, which advances with draws,
	// but two identically-positioned sources must derive identically.
	a := New(9)
	b := New(9)
	a.Uint64()
	b.Uint64()
	ca, cb := a.Derive(1), b.Derive(1)
	if ca.Uint64() != cb.Uint64() {
		t.Errorf("derivation not a pure function of source state")
	}
}

// TestForkIsDeriveByValue: Fork and Derive are one stream, the one the
// slice-building derivation New(Mix(state words..., coordinates...)) defined,
// and Fork keeps it off the heap.
func TestForkIsDeriveByValue(t *testing.T) {
	parent := New(11)
	parent.Uint64()
	want := New(Mix(parent.s[0], parent.s[1], parent.s[2], parent.s[3], 4, 1999, 7))
	byPtr := parent.Derive(4, 1999, 7)
	byVal := parent.Fork(4, 1999, 7)
	for i := 0; i < 64; i++ {
		w := want.Uint64()
		if p, v := byPtr.Uint64(), byVal.Uint64(); p != w || v != w {
			t.Fatalf("draw %d: Derive %#x, Fork %#x, want %#x", i, p, v, w)
		}
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		src := parent.Fork(4, 1999, 7)
		sink += src.Exp()
	}); n != 0 {
		t.Errorf("Fork allocates %v times per call", n)
	}
	_ = sink
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		if v := r.Float64Open(); v <= 0 || v >= 1 {
			t.Fatalf("Float64Open out of range: %v", v)
		}
	}
}

func TestIntnRangeAndUniformity(t *testing.T) {
	r := New(5)
	const n = 10
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("Exp mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	p := make([]int, 37)
	r.Perm(p)
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestMixStable(t *testing.T) {
	// Mix is part of the reproducibility contract: pin a couple of values so
	// accidental changes to the hash are caught.
	if Mix(1, 2, 3) != Mix(1, 2, 3) {
		t.Fatal("Mix not deterministic")
	}
	if Mix(1, 2, 3) == Mix(1, 3, 2) {
		t.Errorf("Mix insensitive to word order")
	}
	if Mix(0) == Mix(0, 0) {
		t.Errorf("Mix insensitive to word count")
	}
}

func TestMixProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return Mix(a) != Mix(b) // collision in 1e4 quick samples would be alarming
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestReseedResetsGaussianCache(t *testing.T) {
	r := New(13)
	_ = r.Norm() // caches the second variate
	r.Reseed(13)
	a := r.Norm()
	r.Reseed(13)
	b := r.Norm()
	if a != b {
		t.Errorf("Reseed did not clear Gaussian cache: %v vs %v", a, b)
	}
}

func TestMul64MatchesBigMultiplication(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// verify via 32-bit long multiplication with big.Int-free math
		wantLo := a * b
		// compute hi by splitting
		aLo, aHi := a&0xffffffff, a>>32
		bLo, bHi := b&0xffffffff, b>>32
		t1 := aHi*bLo + (aLo*bLo)>>32
		wantHi := aHi*bHi + t1>>32 + (t1&0xffffffff+aLo*bHi)>>32
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}
