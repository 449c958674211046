// Package sim implements the 6-DoF quadrotor physics simulator that stands
// in for the ArduPilot SITL + Gazebo testbed used in the ARES paper.
//
// The simulator models a quad-X frame as a rigid body driven by four
// first-order-lag motors, with aerodynamic drag, a simple battery, a flat
// ground plane and axis-aligned box obstacles. State is integrated with a
// fourth-order Runge-Kutta scheme at the physics rate (default 400 Hz,
// matching the ArduCopter main loop).
//
// Frames: world vectors are NED (north, east, down; gravity is +Z), body
// vectors are FRD (forward, right, down). Thrust acts along body -Z.
package sim

import (
	"errors"
	"fmt"
	"math"

	"github.com/ares-cps/ares/internal/mathx"
)

// Gravity is the standard gravitational acceleration in m/s² (world +Z).
const Gravity = 9.80665

// VehicleParams describes the physical quadrotor. Defaults approximate the
// 3DR IRIS+ airframe flown in the paper's evaluation.
type VehicleParams struct {
	// Mass is the takeoff mass in kg.
	Mass float64
	// Inertia holds the diagonal body inertia (Ixx, Iyy, Izz) in kg·m².
	Inertia mathx.Vec3
	// ArmLength is the motor arm length from the center in m.
	ArmLength float64
	// MaxThrustPerMotor is the thrust at full command for one motor, in N.
	MaxThrustPerMotor float64
	// TorqueCoeff converts motor thrust (N) into yaw reaction torque (N·m).
	TorqueCoeff float64
	// MotorTau is the motor first-order lag time constant in s.
	MotorTau float64
	// LinearDrag holds per-axis linear drag coefficients (N per m/s).
	LinearDrag mathx.Vec3
	// AngularDrag holds rotational drag coefficients (N·m per rad/s).
	AngularDrag mathx.Vec3
	// BatteryCapacity is the usable battery charge in mAh.
	BatteryCapacity float64
	// HoverCurrent is the current draw at hover throttle in A.
	HoverCurrent float64
	// BatteryVoltage is the nominal full-charge voltage in V.
	BatteryVoltage float64
}

// IRISPlusParams returns vehicle parameters approximating the 3DR IRIS+
// quadrotor (1.37 kg, 0.23 m arms) used in the paper's evaluation.
func IRISPlusParams() VehicleParams {
	return VehicleParams{
		Mass:              1.37,
		Inertia:           mathx.V3(0.0219, 0.0109, 0.0306),
		ArmLength:         0.23,
		MaxThrustPerMotor: 8.5,
		TorqueCoeff:       0.016,
		MotorTau:          0.05,
		LinearDrag:        mathx.V3(0.35, 0.35, 0.55),
		AngularDrag:       mathx.V3(0.003, 0.003, 0.004),
		BatteryCapacity:   5100,
		HoverCurrent:      13,
		BatteryVoltage:    12.6,
	}
}

// Pixhawk4Params returns parameters approximating a generic Pixhawk4-based
// 450-class quadrotor, the second virtual vehicle in the evaluation.
func Pixhawk4Params() VehicleParams {
	return VehicleParams{
		Mass:              1.62,
		Inertia:           mathx.V3(0.0347, 0.0347, 0.0617),
		ArmLength:         0.225,
		MaxThrustPerMotor: 9.8,
		TorqueCoeff:       0.018,
		MotorTau:          0.06,
		LinearDrag:        mathx.V3(0.40, 0.40, 0.60),
		AngularDrag:       mathx.V3(0.004, 0.004, 0.005),
		BatteryCapacity:   5000,
		HoverCurrent:      15,
		BatteryVoltage:    14.8,
	}
}

// Validate reports configuration errors that would break the dynamics.
func (p VehicleParams) Validate() error {
	switch {
	case p.Mass <= 0:
		return errors.New("sim: mass must be positive")
	case p.Inertia.X <= 0 || p.Inertia.Y <= 0 || p.Inertia.Z <= 0:
		return errors.New("sim: inertia components must be positive")
	case p.ArmLength <= 0:
		return errors.New("sim: arm length must be positive")
	case p.MaxThrustPerMotor*4 <= p.Mass*Gravity:
		return fmt.Errorf("sim: max thrust %.2f N cannot lift %.2f kg",
			p.MaxThrustPerMotor*4, p.Mass)
	case p.MotorTau <= 0:
		return errors.New("sim: motor time constant must be positive")
	}
	return nil
}

// HoverThrottle returns the per-motor command fraction that balances gravity.
func (p VehicleParams) HoverThrottle() float64 { return hoverThrottle(&p) }

// hoverThrottle is HoverThrottle without the by-value copy of the params,
// for the per-step battery model.
func hoverThrottle(p *VehicleParams) float64 {
	return p.Mass * Gravity / (4 * p.MaxThrustPerMotor)
}

// State is the full rigid-body state of the vehicle.
type State struct {
	// Pos is the world NED position in m (Z is down; altitude = -Z).
	Pos mathx.Vec3
	// Vel is the world NED velocity in m/s.
	Vel mathx.Vec3
	// Att is the body→world attitude quaternion.
	Att mathx.Quat
	// Omega is the body angular rate (p, q, r) in rad/s.
	Omega mathx.Vec3
	// Motor holds the four actual (lagged) motor outputs in [0, 1],
	// ordered front-right, back-left, front-left, back-right (ArduPilot
	// quad-X numbering).
	Motor [4]float64
}

// Quad is the simulated quadrotor plant.
type Quad struct {
	Params VehicleParams

	state       State
	battery     Battery
	crashed     bool
	crashInfo   string
	timeS       float64
	world       *World
	impactSpeed float64
	lastAccel   mathx.Vec3

	// euler is state.Att.Euler() for the attitude whose exact bits are
	// eulerKey; eulerOK is false until the first Euler call.
	eulerKey [4]uint64
	euler    [3]float64
	eulerOK  bool
}

// NewQuad creates a quadrotor resting on the ground at the origin.
// The provided params are validated; invalid params return an error.
func NewQuad(params VehicleParams, opts ...Option) (*Quad, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	q := &Quad{
		Params: params,
		state:  State{Att: mathx.QuatIdentity()},
		battery: Battery{
			CapacitymAh: params.BatteryCapacity,
			RemainmAh:   params.BatteryCapacity,
			NominalV:    params.BatteryVoltage,
			Voltage:     params.BatteryVoltage,
		},
		world: &World{},
	}
	for _, o := range opts {
		o.apply(q)
	}
	return q, nil
}

// Option configures a Quad at construction time.
type Option interface{ apply(*Quad) }

type optionFunc func(*Quad)

func (f optionFunc) apply(q *Quad) { f(q) }

// WithWorld installs a world (ground plane plus obstacles).
func WithWorld(w *World) Option {
	return optionFunc(func(q *Quad) {
		if w != nil {
			q.world = w
		}
	})
}

// WithInitialState overrides the starting state.
func WithInitialState(s State) Option {
	return optionFunc(func(q *Quad) { q.state = s })
}

// State returns a copy of the current vehicle state.
func (q *Quad) State() State { return q.state }

// StateRef returns the live vehicle state, which every Step overwrites.
// It is for readers on the per-tick path that would otherwise copy the
// whole State; callers must not write through it (use SetState).
func (q *Quad) StateRef() *State { return &q.state }

// Euler returns the attitude as (roll, pitch, yaw) in radians, the value
// of State().Att.Euler(). The conversion is memoized on the exact bits of
// the attitude quaternion, not on ==: a +0 and a −0 component compare
// equal but can give Atan2 results of opposite sign. Every reader between
// two physics steps then shares one conversion.
func (q *Quad) Euler() (roll, pitch, yaw float64) {
	a := &q.state.Att
	key := [4]uint64{
		math.Float64bits(a.W), math.Float64bits(a.X),
		math.Float64bits(a.Y), math.Float64bits(a.Z),
	}
	if !q.eulerOK || key != q.eulerKey {
		q.euler[0], q.euler[1], q.euler[2] = a.Euler()
		q.eulerKey, q.eulerOK = key, true
	}
	return q.euler[0], q.euler[1], q.euler[2]
}

// SetState overwrites the vehicle state and clears any crash condition.
func (q *Quad) SetState(s State) {
	q.state = s
	q.crashed = false
	q.crashInfo = ""
}

// Time returns the simulated time in seconds since construction.
func (q *Quad) Time() float64 { return q.timeS }

// LastAccel returns the world-frame acceleration over the most recent step,
// used by the IMU model to derive the specific force an accelerometer sees.
func (q *Quad) LastAccel() mathx.Vec3 { return q.lastAccel }

// Battery returns the live battery status, which every Step updates;
// like StateRef it is read-only.
func (q *Quad) Battery() *Battery { return &q.battery }

// Crashed reports whether the vehicle has crashed and why.
func (q *Quad) Crashed() (bool, string) { return q.crashed, q.crashInfo }

// nonFiniteStep is the crash reason recorded when Step is fed NaN or ±Inf.
const nonFiniteStep = "non-finite motor command or dt"

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Step advances the simulation by dt seconds with the given motor commands
// in [0, 1]. Once crashed the vehicle stays put and Step is a no-op.
//
// Non-finite commands or dt crash the vehicle with an explanatory reason
// instead of silently poisoning the state: a NaN dt previously slipped past
// the dt <= 0 guard and propagated through the integrator.
func (q *Quad) Step(cmd [4]float64, dt float64) {
	if q.crashed {
		return
	}
	if !finite(dt) || !finite(cmd[0]) || !finite(cmd[1]) || !finite(cmd[2]) || !finite(cmd[3]) {
		q.crash(nonFiniteStep)
		return
	}
	if dt <= 0 {
		return
	}
	for i := range cmd {
		cmd[i] = mathx.Clamp(cmd[i], 0, 1)
	}
	if q.battery.Depleted() {
		// A dead battery stops the motors; the vehicle falls.
		cmd = [4]float64{}
	}

	prevVel := q.state.Vel
	q.integrate(&cmd, dt)
	q.lastAccel = q.state.Vel.Sub(prevVel).Scale(1 / dt)
	q.timeS += dt
	q.battery.drain(q.currentDraw(&cmd), dt)
	q.checkCollisions()
}

// currentDraw estimates battery current from the commanded throttle.
func (q *Quad) currentDraw(cmd *[4]float64) float64 {
	p := &q.Params
	sum := cmd[0] + cmd[1] + cmd[2] + cmd[3]
	hover := 4 * hoverThrottle(p)
	if hover == 0 {
		return 0
	}
	// Current scales roughly with throttle^1.5 around hover.
	ratio := sum / hover
	return p.HoverCurrent * math.Pow(math.Max(ratio, 0), 1.5)
}

// deriv computes the state derivative for the RK4 integrator.
type deriv struct {
	vel   mathx.Vec3 // d(pos)/dt
	acc   mathx.Vec3 // d(vel)/dt
	omega mathx.Vec3 // body rate for attitude kinematics
	alpha mathx.Vec3 // d(omega)/dt
	motor [4]float64 // d(motor)/dt
}

// dynamics writes the state derivative at s into d. States, derivatives
// and parameters travel by pointer: the RK4 step evaluates this four times,
// and copying State, deriv and VehicleParams by value dominated its cost.
func (q *Quad) dynamics(d *deriv, s *State, cmd *[4]float64) {
	p := &q.Params

	// Motor first-order lag toward command.
	for i := range d.motor {
		d.motor[i] = (cmd[i] - s.Motor[i]) / p.MotorTau
	}

	// Per-motor thrust (N), body -Z.
	var thrust [4]float64
	total := 0.0
	for i := range thrust {
		thrust[i] = p.MaxThrustPerMotor * s.Motor[i]
		total += thrust[i]
	}

	// Quad-X geometry with ArduPilot motor numbering:
	//   m0 front-right (CCW), m1 back-left (CCW),
	//   m2 front-left (CW),  m3 back-right (CW).
	l := p.ArmLength / math.Sqrt2
	rollTorque := l * (-thrust[0] + thrust[1] + thrust[2] - thrust[3])
	pitchTorque := l * (thrust[0] - thrust[1] + thrust[2] - thrust[3])
	yawTorque := p.TorqueCoeff * (thrust[0] + thrust[1] - thrust[2] - thrust[3])
	torque := mathx.V3(rollTorque, pitchTorque, yawTorque)
	torque = torque.Sub(p.AngularDrag.Hadamard(s.Omega))

	// Forces in world frame: gravity + rotated thrust + drag.
	gravity := mathx.V3(0, 0, p.Mass*Gravity)
	thrustWorld := s.Att.Rotate(mathx.V3(0, 0, -total))
	drag := p.LinearDrag.Hadamard(s.Vel).Neg()
	d.acc = gravity.Add(thrustWorld).Add(drag).Scale(1 / p.Mass)

	// Euler's rotation equation: I·ω̇ = τ − ω × (I·ω).
	iOmega := p.Inertia.Hadamard(s.Omega)
	gyro := s.Omega.Cross(iOmega)
	d.alpha = mathx.V3(
		(torque.X-gyro.X)/p.Inertia.X,
		(torque.Y-gyro.Y)/p.Inertia.Y,
		(torque.Z-gyro.Z)/p.Inertia.Z,
	)
	d.vel = s.Vel
	d.omega = s.Omega
}

// applyDeriv writes s advanced by d scaled by dt into out (Euler step
// helper for RK4).
func applyDeriv(out, s *State, d *deriv, dt float64) {
	out.Pos = s.Pos.Add(d.vel.Scale(dt))
	out.Vel = s.Vel.Add(d.acc.Scale(dt))
	out.Att = s.Att.Integrate(d.omega, dt)
	out.Omega = s.Omega.Add(d.alpha.Scale(dt))
	for i := range out.Motor {
		out.Motor[i] = mathx.Clamp(s.Motor[i]+d.motor[i]*dt, 0, 1)
	}
}

// integrate advances q.state by one RK4 step of the full dynamics.
func (q *Quad) integrate(cmd *[4]float64, dt float64) {
	s := &q.state
	var k1, k2, k3, k4 deriv
	var tmp State
	q.dynamics(&k1, s, cmd)
	applyDeriv(&tmp, s, &k1, dt/2)
	q.dynamics(&k2, &tmp, cmd)
	applyDeriv(&tmp, s, &k2, dt/2)
	q.dynamics(&k3, &tmp, cmd)
	applyDeriv(&tmp, s, &k3, dt)
	q.dynamics(&k4, &tmp, cmd)

	combine := func(a, b, c, d mathx.Vec3) mathx.Vec3 {
		return a.Add(b.Scale(2)).Add(c.Scale(2)).Add(d).Scale(1.0 / 6)
	}
	// s is updated in place: every field below reads only its own old
	// value, so no field is read after it has been overwritten.
	s.Pos = s.Pos.Add(combine(k1.vel, k2.vel, k3.vel, k4.vel).Scale(dt))
	s.Vel = s.Vel.Add(combine(k1.acc, k2.acc, k3.acc, k4.acc).Scale(dt))
	s.Omega = s.Omega.Add(combine(k1.alpha, k2.alpha, k3.alpha, k4.alpha).Scale(dt))
	// Attitude: integrate with the RK4-averaged body rate.
	avgOmega := combine(k1.omega, k2.omega, k3.omega, k4.omega)
	s.Att = s.Att.Integrate(avgOmega, dt)
	for i := range s.Motor {
		dm := (k1.motor[i] + 2*k2.motor[i] + 2*k3.motor[i] + k4.motor[i]) / 6
		s.Motor[i] = mathx.Clamp(s.Motor[i]+dm*dt, 0, 1)
	}

	// Ground support: a vehicle resting on the ground cannot sink below
	// it, and gentle contact zeroes vertical motion instead of crashing.
	// The pre-clamp sink rate is kept so the crash check can judge the
	// severity of the impact.
	q.impactSpeed = 0
	if s.Pos.Z > 0 {
		if s.Vel.Z > 0 {
			q.impactSpeed = s.Vel.Z
			s.Vel.Z = 0
		}
		s.Pos.Z = 0
		// Friction kills residual horizontal speed on the ground.
		s.Vel.X *= 0.5
		s.Vel.Y *= 0.5
	}
}

// crashSpeed is the vertical impact speed in m/s above which ground contact
// counts as a crash rather than a landing.
const crashSpeed = 2.5

// tipOverRad is the roll/pitch magnitude beyond which ground contact counts
// as a tip-over (60°).
var tipOverRad = mathx.Rad(60)

func (q *Quad) checkCollisions() {
	s := &q.state
	// Hard ground impact (impact speed recorded by the ground clamp).
	if q.impactSpeed > crashSpeed {
		q.crash(fmt.Sprintf("ground impact at %.1f m/s", q.impactSpeed))
		return
	}
	// Extreme attitude near the ground means a tip-over. The attitude is
	// converted only there; higher up the test cannot fire.
	if -s.Pos.Z < 0.3 {
		roll, pitch, _ := q.Euler()
		if math.Abs(roll) > tipOverRad || math.Abs(pitch) > tipOverRad {
			q.crash("tip-over near ground")
			return
		}
	}
	// Obstacle contact.
	if ob, hit := q.world.Hit(s.Pos); hit {
		q.crash(fmt.Sprintf("collision with obstacle %q", ob.Name))
		return
	}
}

func (q *Quad) crash(reason string) {
	q.crashed = true
	q.crashInfo = reason
	q.state.Vel = mathx.Vec3{}
	q.state.Omega = mathx.Vec3{}
	if q.state.Pos.Z > 0 {
		q.state.Pos.Z = 0
	}
}
