// Package mathx provides the small linear-algebra and numeric toolkit shared
// by the simulator, controllers, estimators and statistics packages.
//
// Everything here is deliberately allocation-free value math: Vec3 and AABB
// are plain structs, quaternions are four floats, and all operations return
// new values. This keeps the 400 Hz control loop free of garbage and makes
// the physics integrator trivially testable.
package mathx

import "math"

// Vec3 is a three-dimensional vector. The simulator uses the NED (north,
// east, down) convention for world-frame vectors and FRD (forward, right,
// down) for body-frame vectors.
type Vec3 struct {
	X, Y, Z float64
}

// V3 is shorthand for constructing a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product of v and o.
func (v Vec3) Dot(o Vec3) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Cross returns the cross product v × o.
func (v Vec3) Cross(o Vec3) Vec3 {
	return Vec3{
		X: v.Y*o.Z - v.Z*o.Y,
		Y: v.Z*o.X - v.X*o.Z,
		Z: v.X*o.Y - v.Y*o.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormSq returns the squared Euclidean length of v.
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// Normalized returns v scaled to unit length. The zero vector is returned
// unchanged so callers never divide by zero.
func (v Vec3) Normalized() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Hadamard returns the element-wise product of v and o.
func (v Vec3) Hadamard(o Vec3) Vec3 { return Vec3{v.X * o.X, v.Y * o.Y, v.Z * o.Z} }

// XY returns the horizontal (X, Y) length of v.
func (v Vec3) XY() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the Euclidean distance between v and o.
func (v Vec3) Dist(o Vec3) float64 { return v.Sub(o).Norm() }
