package mathx

import "math"

// Quat is a unit quaternion (w, x, y, z) representing a rotation from the
// body frame to the world frame.
type Quat struct {
	W, X, Y, Z float64
}

// QuatIdentity returns the identity rotation.
func QuatIdentity() Quat { return Quat{W: 1} }

// QuatFromEuler builds a quaternion from roll (φ, about X), pitch (θ, about
// Y) and yaw (ψ, about Z) using the aerospace Z-Y-X rotation sequence.
func QuatFromEuler(roll, pitch, yaw float64) Quat {
	sr, cr := math.Sincos(roll / 2)
	sp, cp := math.Sincos(pitch / 2)
	sy, cy := math.Sincos(yaw / 2)
	return Quat{
		W: cr*cp*cy + sr*sp*sy,
		X: sr*cp*cy - cr*sp*sy,
		Y: cr*sp*cy + sr*cp*sy,
		Z: cr*cp*sy - sr*sp*cy,
	}
}

// Euler returns the (roll, pitch, yaw) Z-Y-X Euler angles of q.
func (q Quat) Euler() (roll, pitch, yaw float64) {
	// Roll (x-axis rotation).
	sinr := 2 * (q.W*q.X + q.Y*q.Z)
	cosr := 1 - 2*(q.X*q.X+q.Y*q.Y)
	roll = math.Atan2(sinr, cosr)

	// Pitch (y-axis rotation), clamped at the gimbal-lock singularity.
	sinp := 2 * (q.W*q.Y - q.Z*q.X)
	switch {
	case sinp >= 1:
		pitch = math.Pi / 2
	case sinp <= -1:
		pitch = -math.Pi / 2
	default:
		pitch = math.Asin(sinp)
	}

	// Yaw (z-axis rotation).
	siny := 2 * (q.W*q.Z + q.X*q.Y)
	cosy := 1 - 2*(q.Y*q.Y+q.Z*q.Z)
	yaw = math.Atan2(siny, cosy)
	return roll, pitch, yaw
}

// Mul returns the quaternion product q · o (first rotate by o, then q).
func (q Quat) Mul(o Quat) Quat {
	return Quat{
		W: q.W*o.W - q.X*o.X - q.Y*o.Y - q.Z*o.Z,
		X: q.W*o.X + q.X*o.W + q.Y*o.Z - q.Z*o.Y,
		Y: q.W*o.Y - q.X*o.Z + q.Y*o.W + q.Z*o.X,
		Z: q.W*o.Z + q.X*o.Y - q.Y*o.X + q.Z*o.W,
	}
}

// Conj returns the conjugate (inverse for unit quaternions).
func (q Quat) Conj() Quat { return Quat{W: q.W, X: -q.X, Y: -q.Y, Z: -q.Z} }

// Norm returns the quaternion magnitude.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalized returns q scaled to unit length; the zero quaternion becomes
// the identity so downstream rotations stay well defined.
func (q Quat) Normalized() Quat {
	n := q.Norm()
	if n == 0 {
		return QuatIdentity()
	}
	return Quat{W: q.W / n, X: q.X / n, Y: q.Y / n, Z: q.Z / n}
}

// Rotate applies the rotation to a body-frame vector, yielding the
// world-frame vector.
func (q Quat) Rotate(v Vec3) Vec3 {
	// v' = q · (0, v) · q*
	qv := Quat{X: v.X, Y: v.Y, Z: v.Z}
	r := q.Mul(qv).Mul(q.Conj())
	return Vec3{X: r.X, Y: r.Y, Z: r.Z}
}

// RotateInverse applies the inverse rotation: world frame → body frame.
func (q Quat) RotateInverse(v Vec3) Vec3 { return q.Conj().Rotate(v) }

// Integrate advances the attitude by body angular rate ω over dt seconds
// using first-order quaternion kinematics, renormalizing the result.
func (q Quat) Integrate(omega Vec3, dt float64) Quat {
	// q̇ = ½ q ⊗ (0, ω)
	dq := q.Mul(Quat{X: omega.X, Y: omega.Y, Z: omega.Z})
	return Quat{
		W: q.W + 0.5*dq.W*dt,
		X: q.X + 0.5*dq.X*dt,
		Y: q.Y + 0.5*dq.Y*dt,
		Z: q.Z + 0.5*dq.Z*dt,
	}.Normalized()
}

// Dot returns the four-dimensional dot product of two quaternions, used to
// measure rotational closeness (1 = identical orientation).
func (q Quat) Dot(o Quat) float64 {
	return q.W*o.W + q.X*o.X + q.Y*o.Y + q.Z*o.Z
}
