package control

import (
	"math"

	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/vars"
)

// PositionController implements the ArduCopter position cascade for one
// vehicle: horizontal position → velocity (square-root controller), velocity
// → acceleration (PID), acceleration → lean angles; and vertical position →
// climb rate (square-root controller) → throttle (PID around hover).
//
// Together with AttitudeController this reproduces the paper's "six
// cascading controllers ... each composed of three primitive sub-controllers
// for the position, velocity, and acceleration".
type PositionController struct {
	// PosXY converts horizontal position error (m) to target speed (m/s).
	PosXY *SqrtController
	// VelX and VelY convert velocity error to acceleration demand (m/s²).
	VelX, VelY *PID
	// PosZ converts altitude error (m) to target climb rate (m/s).
	PosZ *SqrtController
	// VelZ converts climb-rate error to throttle delta around hover.
	VelZ *PID
	// MaxSpeedXY and MaxSpeedZ clamp commanded speeds (m/s).
	MaxSpeedXY, MaxSpeedZ float64
	// MaxLeanAngle clamps the commanded lean in radians.
	MaxLeanAngle float64
	// HoverThrottle is the feed-forward throttle that balances gravity.
	HoverThrottle float64

	// Intermediates exposed for instrumentation: desired velocity (the
	// NTUN DVelX/DVelY dataflash fields), desired acceleration, and the
	// throttle output (CTUN.ThO).
	desVelX, desVelY, desVelZ float64
	desAccX, desAccY          float64
	throttleOut               float64
	// tv is the throttle-scaled velocity intermediate from the paper's
	// Figure 3 KSVL (target velocity magnitude along the track).
	tv float64
}

// NewPositionController builds the cascade with the ArduCopter-style
// position tune for a loop period of dt seconds, holding altitude around
// the given hover throttle.
func NewPositionController(dt, hoverThrottle float64) *PositionController {
	// The D gain is kept small: the velocity estimate steps at each 5 Hz
	// GPS fusion and a large D term would turn those steps into lean-angle
	// spikes.
	velXY := PIDConfig{
		KP: 1.8, KI: 0.8, KD: 0.05,
		IMax: 2.5, FilterHz: 5, DT: dt,
	}
	return &PositionController{
		PosXY: newSqrtController(1.0, 2.0), // POS_XY_P
		VelX:  NewPID(velXY),
		VelY:  NewPID(velXY),
		PosZ:  newSqrtController(1.0, 1.5), // POS_Z_P
		VelZ: NewPID(PIDConfig{
			KP: 0.30, KI: 0.15, KD: 0.0,
			IMax: 0.2, FilterHz: 5, DT: dt,
		}),
		// 5 m/s matches ArduCopter's WPNAV_SPEED default; faster cruise
		// makes 90° waypoint turns overshoot badly.
		MaxSpeedXY:    5,
		MaxSpeedZ:     3,
		MaxLeanAngle:  mathx.Rad(30),
		HoverThrottle: hoverThrottle,
	}
}

// Update runs one position-control cycle. All vectors are NED. It returns
// the lean-angle targets (roll, pitch, in radians, in the *world yaw frame*
// rotated by the measured yaw) and the collective throttle in [0, 1].
func (c *PositionController) Update(targetPos, pos, vel mathx.Vec3, yaw float64) (desRoll, desPitch, throttle float64) {
	// --- Horizontal ---
	errN := targetPos.X - pos.X
	errE := targetPos.Y - pos.Y
	errDist := math.Hypot(errN, errE)
	speed := mathx.Clamp(c.PosXY.Update(errDist), 0, c.MaxSpeedXY)
	c.tv = speed
	c.desVelX, c.desVelY = 0, 0
	if errDist > 1e-9 {
		c.desVelX = speed * errN / errDist
		c.desVelY = speed * errE / errDist
	}

	c.desAccX = c.VelX.Update(c.desVelX, vel.X)
	c.desAccY = c.VelY.Update(c.desVelY, vel.Y)

	// Acceleration demand to lean angles: rotate the world-frame demand
	// into the heading frame, then a = g·tan(lean) ≈ g·lean.
	sy, cy := math.Sincos(yaw)
	accFwd := c.desAccX*cy + c.desAccY*sy
	accRight := -c.desAccX*sy + c.desAccY*cy
	desPitch = mathx.Clamp(-math.Atan2(accFwd, gravityMS2), -c.MaxLeanAngle, c.MaxLeanAngle)
	desRoll = mathx.Clamp(math.Atan2(accRight, gravityMS2), -c.MaxLeanAngle, c.MaxLeanAngle)

	// --- Vertical --- (NED: negative Z error means climb)
	altErr := -(targetPos.Z - pos.Z) // positive = need to climb
	climb := mathx.Clamp(c.PosZ.Update(altErr), -c.MaxSpeedZ, c.MaxSpeedZ)
	c.desVelZ = climb
	climbMeas := -vel.Z
	delta := c.VelZ.Update(climb, climbMeas)
	c.throttleOut = mathx.Clamp(c.HoverThrottle+delta, 0, 1)
	return desRoll, desPitch, c.throttleOut
}

// Throttle returns the last computed throttle.
func (c *PositionController) Throttle() float64 { return c.throttleOut }

// RegisterVars exposes the cascade variables: the NTUN navigation block, the
// square-root controllers (SQP, SQZ) and the velocity PIDs (PIDVX…).
func (c *PositionController) RegisterVars(set *vars.Set) error {
	dyn := []struct {
		name string
		ptr  *float64
	}{
		{"NTUN.DVelX", &c.desVelX},
		{"NTUN.DVelY", &c.desVelY},
		{"NTUN.DVelZ", &c.desVelZ},
		{"NTUN.DAccX", &c.desAccX},
		{"NTUN.DAccY", &c.desAccY},
		{"CTUN.ThO", &c.throttleOut},
		{"NTUN.tv", &c.tv},
	}
	for _, v := range dyn {
		if err := set.Register(v.name, vars.KindDynamic, v.ptr); err != nil {
			return err
		}
	}
	if err := c.PosXY.RegisterVars(set, "SQP"); err != nil {
		return err
	}
	if err := c.PosZ.RegisterVars(set, "SQZ"); err != nil {
		return err
	}
	if err := c.VelX.RegisterVars(set, "PIDVX"); err != nil {
		return err
	}
	if err := c.VelY.RegisterVars(set, "PIDVY"); err != nil {
		return err
	}
	return c.VelZ.RegisterVars(set, "PIDVZ")
}

// Mixer converts a collective throttle plus normalized roll/pitch/yaw torque
// demands into the four motor commands of an X-frame quadrotor, using the
// ArduPilot motor numbering (m0 front-right CCW, m1 back-left CCW, m2
// front-left CW, m3 back-right CW).
type Mixer struct {
	// lastCmd holds the most recent motor outputs for logging (RCOU).
	lastCmd [4]float64
}

// Mix computes the motor commands, clamping each to [0, 1]. Yaw authority
// is deprioritized: if adding the yaw term would push any motor outside its
// range, the yaw contribution is scaled down first so roll and pitch (which
// keep the vehicle upright) always retain authority — ArduPilot's motor
// mixing priority.
func (m *Mixer) Mix(throttle, rollT, pitchT, yawT float64) [4]float64 {
	base := [4]float64{
		throttle - rollT + pitchT, // m0 front-right
		throttle + rollT - pitchT, // m1 back-left
		throttle + rollT + pitchT, // m2 front-left
		throttle - rollT - pitchT, // m3 back-right
	}
	yawSign := [4]float64{1, 1, -1, -1}
	// Find the largest yaw scale in [0, 1] that keeps every motor in
	// range (given base commands already clamped by the caller's gains).
	scale := 1.0
	for i := range base {
		y := yawT * yawSign[i]
		if y == 0 {
			continue
		}
		headroom := 1 - base[i]
		if y < 0 {
			headroom = base[i]
		}
		if need := math.Abs(y); need > 0 && headroom < need {
			if headroom < 0 {
				headroom = 0
			}
			if s := headroom / need; s < scale {
				scale = s
			}
		}
	}
	var cmd [4]float64
	for i := range cmd {
		cmd[i] = mathx.Clamp(base[i]+yawT*yawSign[i]*scale, 0, 1)
	}
	m.lastCmd = cmd
	return cmd
}

// LastCommands returns the most recent motor outputs.
func (m *Mixer) LastCommands() [4]float64 { return m.lastCmd }

// RegisterVars exposes the four motor outputs (RCOU.C1..C4).
func (m *Mixer) RegisterVars(set *vars.Set) error {
	names := [4]string{"RCOU.C1", "RCOU.C2", "RCOU.C3", "RCOU.C4"}
	for i := range names {
		if err := set.Register(names[i], vars.KindDynamic, &m.lastCmd[i]); err != nil {
			return err
		}
	}
	return nil
}
