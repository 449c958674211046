package mathx

import "math"

// Clamp limits v to the closed interval [lo, hi]. It assumes lo <= hi.
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// WrapPi wraps an angle in radians to (-π, π].
//
// An angle already in range is returned as is: math.Mod(a, 2π) returns
// a itself, −0 included, whenever |a| < 2π, so skipping it there gives the
// same bits. NaN fails both comparisons and still goes through Mod.
func WrapPi(a float64) float64 {
	if -math.Pi < a && a <= math.Pi {
		return a
	}
	a = math.Mod(a, 2*math.Pi)
	switch {
	case a > math.Pi:
		a -= 2 * math.Pi
	case a <= -math.Pi:
		a += 2 * math.Pi
	}
	return a
}

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }

// ApproxEqual reports whether a and b differ by no more than tol.
func ApproxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// segment is a 3D line segment between points A and B, used for mission
// path legs and forbidden-zone boundaries.
type segment struct {
	A, B Vec3
}

// ClosestPoint returns the point on the segment closest to p.
func (s segment) ClosestPoint(p Vec3) Vec3 {
	ab := s.B.Sub(s.A)
	denom := ab.NormSq()
	if denom == 0 {
		return s.A
	}
	t := Clamp(p.Sub(s.A).Dot(ab)/denom, 0, 1)
	return s.A.Add(ab.Scale(t))
}

// Distance returns the shortest distance from p to the segment.
func (s segment) Distance(p Vec3) float64 {
	return s.ClosestPoint(p).Dist(p)
}

// PathDistance returns the minimum distance from p to a polyline defined by
// consecutive waypoints, matching the paper's observation
// d = min ‖p − path‖ over all legs. It returns 0 for fewer than 2 points
// when the single point coincides with p, or the distance to the lone point.
func PathDistance(p Vec3, waypoints []Vec3) float64 {
	switch len(waypoints) {
	case 0:
		return math.Inf(1)
	case 1:
		return p.Dist(waypoints[0])
	}
	best := math.Inf(1)
	for i := 0; i+1 < len(waypoints); i++ {
		d := (segment{A: waypoints[i], B: waypoints[i+1]}).Distance(p)
		if d < best {
			best = d
		}
	}
	return best
}

// AABB is an axis-aligned box used to model obstacles and forbidden zones.
type AABB struct {
	Min, Max Vec3
}

// Contains reports whether p lies inside the box (inclusive).
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Distance returns the shortest distance from p to the box surface; 0 if p
// is inside.
func (b AABB) Distance(p Vec3) float64 {
	dx := math.Max(math.Max(b.Min.X-p.X, 0), p.X-b.Max.X)
	dy := math.Max(math.Max(b.Min.Y-p.Y, 0), p.Y-b.Max.Y)
	dz := math.Max(math.Max(b.Min.Z-p.Z, 0), p.Z-b.Max.Z)
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Center returns the box center point.
func (b AABB) Center() Vec3 {
	return b.Min.Add(b.Max).Scale(0.5)
}

// LowPassAlpha computes the smoothing factor for a first-order low-pass
// filter with the given cutoff frequency (Hz) sampled every dt seconds.
// A cutoff <= 0 disables filtering (alpha = 1, output follows input).
func LowPassAlpha(cutoffHz, dt float64) float64 {
	if cutoffHz <= 0 || dt <= 0 {
		return 1
	}
	rc := 1 / (2 * math.Pi * cutoffHz)
	return dt / (dt + rc)
}
