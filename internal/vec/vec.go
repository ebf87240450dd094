// Package vec provides the small fixed-size vector type shared by the
// molecular-dynamics and Monte Carlo engines. Values are plain float64
// triples in Å (positions), Å/ps (velocities), or eV/Å (forces); the package
// is deliberately free of any unit knowledge.
package vec

import "math"

// V is a 3-component vector.
type V struct{ X, Y, Z float64 }

// Add returns a + b.
func (a V) Add(b V) V { return V{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a V) Sub(b V) V { return V{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s * a.
func (a V) Scale(s float64) V { return V{s * a.X, s * a.Y, s * a.Z} }

// Dot returns the inner product of a and b.
func (a V) Dot(b V) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Norm2 returns |a|².
func (a V) Norm2() float64 { return a.Dot(a) }

// Norm returns |a|.
func (a V) Norm() float64 { return math.Sqrt(a.Norm2()) }

// MulAdd returns a + s*b without intermediate allocation in hot loops.
func (a V) MulAdd(s float64, b V) V {
	return V{a.X + s*b.X, a.Y + s*b.Y, a.Z + s*b.Z}
}

// Dist returns |a-b|.
func Dist(a, b V) float64 { return a.Sub(b).Norm() }

// Zero is the zero vector.
var Zero = V{}
