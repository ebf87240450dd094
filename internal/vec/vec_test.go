package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestBasicOps(t *testing.T) {
	a := V{1, 2, 3}
	b := V{4, -5, 6}
	if got := a.Add(b); got != (V{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (V{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (V{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); !approx(got, 4-10+18) {
		t.Errorf("Dot = %v", got)
	}
	if got := (V{3, 4, 0}).Norm(); !approx(got, 5) {
		t.Errorf("Norm = %v", got)
	}
	if got := a.MulAdd(2, b); got != (V{9, -8, 15}) {
		t.Errorf("MulAdd = %v", got)
	}
	if got := Dist(V{1, 1, 1}, V{1, 1, 4}); !approx(got, 3) {
		t.Errorf("Dist = %v", got)
	}
}

func TestAlgebraicProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	// Clamp magnitudes so absolute float comparisons stay meaningful.
	clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
	commutative := func(ax, ay, az, bx, by, bz float64) bool {
		a := V{clamp(ax), clamp(ay), clamp(az)}
		b := V{clamp(bx), clamp(by), clamp(bz)}
		return a.Add(b) == b.Add(a) && a.Dot(b) == b.Dot(a)
	}
	if err := quick.Check(commutative, cfg); err != nil {
		t.Error(err)
	}
	subInverse := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := V{ax, ay, az}, V{bx, by, bz}
		return a.Sub(b) == a.Add(b.Scale(-1))
	}
	if err := quick.Check(subInverse, cfg); err != nil {
		t.Error(err)
	}
	norm2NonNegative := func(ax, ay, az float64) bool {
		return (V{ax, ay, az}).Norm2() >= 0
	}
	if err := quick.Check(norm2NonNegative, cfg); err != nil {
		t.Error(err)
	}
}
