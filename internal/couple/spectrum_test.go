package couple

import (
	"math"
	"strings"
	"testing"
)

func TestReadSpectrum(t *testing.T) {
	src := `# W PKA spectrum (toy)
100          # bare energy, weight defaults to 1
300  2.5     # weighted line
1000 0.5
`
	s, err := ReadSpectrum(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Energies) != 3 || len(s.Weights) != 3 {
		t.Fatalf("parsed %d energies, %d weights, want 3 each", len(s.Energies), len(s.Weights))
	}
	if s.Energies[0] != 100 || s.Weights[0] != 1 {
		t.Errorf("line 1 = (%v, %v), want (100, 1)", s.Energies[0], s.Weights[0])
	}
	if s.Energies[1] != 300 || s.Weights[1] != 2.5 {
		t.Errorf("line 2 = (%v, %v), want (300, 2.5)", s.Energies[1], s.Weights[1])
	}
	if s.Digest() == "" {
		t.Error("empty digest")
	}
	// The digest pins the exact entries: a different spectrum differs.
	other, err := ReadSpectrum(strings.NewReader("100\n300 2.5\n1001 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if other.Digest() == s.Digest() {
		t.Error("different spectra share a digest")
	}
}

func TestReadSpectrumErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "# only comments\n\n",
		"zero energy":     "0 1\n",
		"negative energy": "-100\n",
		"inf energy":      "+Inf\n",
		"nan energy":      "NaN 1\n",
		"bad energy":      "ten 1\n",
		"negative weight": "100 -1\n",
		"nan weight":      "100 NaN\n",
		"extra fields":    "100 1 7\n",
		"zero total":      "100 0\n200 0\n",
	}
	for name, src := range cases {
		if _, err := ReadSpectrum(strings.NewReader(src)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestFixedSpectrum(t *testing.T) {
	s, err := FixedSpectrum(300)
	if err != nil {
		t.Fatal(err)
	}
	sa := newSampler(s, 1, 0)
	for i := 0; i < 10; i++ {
		if e := sa.Sample(); e != 300 {
			t.Fatalf("fixed spectrum sampled %v", e)
		}
	}
	if _, err := FixedSpectrum(0); err == nil {
		t.Error("zero fixed energy accepted")
	}
}

// TestSamplerCursorReplay: the cursor is the complete stream state — a new
// sampler fast-forwarded by it continues the original draw sequence exactly.
// This is the property the campaign restart leans on.
func TestSamplerCursorReplay(t *testing.T) {
	s, err := ReadSpectrum(strings.NewReader("100 1\n300 3\n1000 0.5\n5000 0.1\n"))
	if err != nil {
		t.Fatal(err)
	}
	const seed, split, n = 42, 17, 60
	full := newSampler(s, seed, 0)
	var want []float64
	for i := 0; i < n; i++ {
		want = append(want, full.Sample())
	}
	head := newSampler(s, seed, 0)
	for i := 0; i < split; i++ {
		if got := head.Sample(); got != want[i] {
			t.Fatalf("draw %d: %v, want %v", i, got, want[i])
		}
	}
	if head.Cursor != split {
		t.Fatalf("cursor %d after %d samples", head.Cursor, split)
	}
	tail := newSampler(s, seed, head.Cursor)
	for i := split; i < n; i++ {
		if got := tail.Sample(); got != want[i] {
			t.Fatalf("resumed draw %d: %v, want %v", i, got, want[i])
		}
	}
}

// TestSamplerHonorsWeights: zero-weight entries are never drawn, and draw
// frequencies follow the weights.
func TestSamplerHonorsWeights(t *testing.T) {
	s, err := ReadSpectrum(strings.NewReader("100 1\n200 0\n300 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	sa := newSampler(s, 7, 0)
	counts := map[float64]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[sa.Sample()]++
	}
	if counts[200] != 0 {
		t.Errorf("zero-weight energy drawn %d times", counts[200])
	}
	if counts[100]+counts[300] != n {
		t.Errorf("unexpected energies drawn: %v", counts)
	}
	ratio := float64(counts[300]) / float64(counts[100])
	if ratio < 2.5 || ratio > 3.6 {
		t.Errorf("300:100 draw ratio %v, want near 3", ratio)
	}
}

// FuzzSpectrum: the parser must never panic, and anything it accepts must
// sample within its own entry set for any u in [0,1).
func FuzzSpectrum(f *testing.F) {
	f.Add("100\n")
	f.Add("100 1\n300 2.5\n# c\n1000 0.5\n")
	f.Add("0 1\n")
	f.Add("-1\n")
	f.Add("1e308 1e308\n")
	f.Add("100 0\n")
	f.Add("NaN NaN\n")
	f.Add("100\t2\r\n300 0\n")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ReadSpectrum(strings.NewReader(src))
		if err != nil {
			return
		}
		valid := map[float64]bool{}
		for i, e := range s.Energies {
			if !(e > 0) || math.IsInf(e, 0) {
				t.Fatalf("accepted non-positive energy %v", e)
			}
			if w := s.Weights[i]; w < 0 || math.IsInf(w, 0) || math.IsNaN(w) {
				t.Fatalf("accepted invalid weight %v", w)
			}
			if s.Weights[i] > 0 {
				valid[e] = true
			}
		}
		for _, u := range []float64{0, 0.25, 0.5, 0.9999999, math.Nextafter(1, 0)} {
			if e := s.sample(u); !valid[e] {
				t.Fatalf("sample(%v) = %v, not a positive-weight entry", u, e)
			}
		}
	})
}
