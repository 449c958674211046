package sim

import (
	"math"
	"testing"

	"github.com/ares-cps/ares/internal/mathx"
)

func newTestQuad(t *testing.T, opts ...Option) *Quad {
	t.Helper()
	q, err := NewQuad(IRISPlusParams(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestVehicleParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*VehicleParams)
		wantErr bool
	}{
		{"valid", func(p *VehicleParams) {}, false},
		{"zero mass", func(p *VehicleParams) { p.Mass = 0 }, true},
		{"negative inertia", func(p *VehicleParams) { p.Inertia.Y = -1 }, true},
		{"zero arm", func(p *VehicleParams) { p.ArmLength = 0 }, true},
		{"underpowered", func(p *VehicleParams) { p.MaxThrustPerMotor = 1 }, true},
		{"zero motor tau", func(p *VehicleParams) { p.MotorTau = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := IRISPlusParams()
			tt.mutate(&p)
			err := p.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestHoverThrottleBalancesGravity(t *testing.T) {
	p := IRISPlusParams()
	h := p.HoverThrottle()
	if h <= 0 || h >= 1 {
		t.Fatalf("hover throttle %v out of range", h)
	}
	if got := 4 * p.MaxThrustPerMotor * h; !mathx.ApproxEqual(got, p.Mass*Gravity, 1e-9) {
		t.Errorf("hover thrust %v, want %v", got, p.Mass*Gravity)
	}
}

func TestQuadRestsOnGround(t *testing.T) {
	q := newTestQuad(t)
	for i := 0; i < 400; i++ {
		q.Step([4]float64{}, 1.0/400)
	}
	s := q.State()
	if s.Altitude() != 0 {
		t.Errorf("idle vehicle altitude = %v, want 0", s.Altitude())
	}
	if crashed, _ := q.Crashed(); crashed {
		t.Error("idle vehicle crashed")
	}
}

func TestQuadClimbsAboveHoverThrottle(t *testing.T) {
	q := newTestQuad(t)
	h := q.Params.HoverThrottle()
	cmd := [4]float64{h * 1.2, h * 1.2, h * 1.2, h * 1.2}
	for i := 0; i < 2*400; i++ {
		q.Step(cmd, 1.0/400)
	}
	if alt := q.State().Altitude(); alt < 1 {
		t.Errorf("altitude after 2 s at 120%% hover = %v, want > 1 m", alt)
	}
	// Symmetric thrust must not induce rotation.
	roll, pitch, _ := q.State().Euler()
	if math.Abs(roll) > 1e-6 || math.Abs(pitch) > 1e-6 {
		t.Errorf("symmetric thrust rotated vehicle: roll=%v pitch=%v", roll, pitch)
	}
}

func TestQuadHoverIsSteady(t *testing.T) {
	q := newTestQuad(t, WithInitialState(State{
		Pos: mathx.V3(0, 0, -10),
		Att: mathx.QuatIdentity(),
	}))
	h := q.Params.HoverThrottle()
	// Pre-spin motors to hover so the lag does not cause an initial drop.
	s := q.State()
	s.Motor = [4]float64{h, h, h, h}
	q.SetState(s)
	cmd := [4]float64{h, h, h, h}
	for i := 0; i < 400; i++ {
		q.Step(cmd, 1.0/400)
	}
	if alt := q.State().Altitude(); !mathx.ApproxEqual(alt, 10, 0.05) {
		t.Errorf("hover altitude drifted to %v, want ~10", alt)
	}
}

func TestQuadTorqueDirections(t *testing.T) {
	// Differential thrust must produce the expected body torques under the
	// ArduPilot quad-X numbering (m0 FR, m1 BL, m2 FL, m3 BR).
	tests := []struct {
		name string
		cmd  [4]float64
		axis func(s State) float64
		sign float64
	}{
		{
			name: "left motors up rolls right (positive roll)",
			cmd:  [4]float64{0.4, 0.6, 0.6, 0.4}, // BL+FL higher
			axis: func(s State) float64 { r, _, _ := s.Euler(); return r },
			sign: 1,
		},
		{
			name: "front motors up pitches up (positive pitch)",
			cmd:  [4]float64{0.6, 0.4, 0.6, 0.4}, // FR+FL higher
			axis: func(s State) float64 { _, p, _ := s.Euler(); return p },
			sign: 1,
		},
		{
			name: "CCW motors up yaws positive",
			cmd:  [4]float64{0.6, 0.6, 0.4, 0.4}, // m0+m1 (CCW) higher
			axis: func(s State) float64 { _, _, y := s.Euler(); return y },
			sign: 1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q := newTestQuad(t, WithInitialState(State{
				Pos: mathx.V3(0, 0, -50),
				Att: mathx.QuatIdentity(),
			}))
			for i := 0; i < 40; i++ { // 0.1 s
				q.Step(tt.cmd, 1.0/400)
			}
			got := tt.axis(q.State())
			if got*tt.sign <= 0 {
				t.Errorf("angle = %v, want sign %v", got, tt.sign)
			}
		})
	}
}

func TestQuadCrashOnHardImpact(t *testing.T) {
	q := newTestQuad(t, WithInitialState(State{
		Pos: mathx.V3(0, 0, -30),
		Att: mathx.QuatIdentity(),
	}))
	// Free fall from 30 m: impact speed ~24 m/s, far above CrashSpeed.
	for i := 0; i < 5*400; i++ {
		q.Step([4]float64{}, 1.0/400)
		if crashed, _ := q.Crashed(); crashed {
			break
		}
	}
	crashed, reason := q.Crashed()
	if !crashed {
		t.Fatal("free fall from 30 m did not crash")
	}
	if reason == "" {
		t.Error("crash reason empty")
	}
	// Crashed vehicle ignores further steps.
	before := q.State()
	q.Step([4]float64{1, 1, 1, 1}, 1.0/400)
	if q.State() != before {
		t.Error("crashed vehicle still moves")
	}
}

func TestQuadObstacleCollision(t *testing.T) {
	w := &World{}
	w.AddObstacle(Obstacle{
		Name: "wall",
		Box:  mathx.AABB{Min: mathx.V3(4, -5, -20), Max: mathx.V3(5, 5, 0)},
	})
	q := newTestQuad(t,
		WithWorld(w),
		WithInitialState(State{
			Pos: mathx.V3(0, 0, -10),
			Vel: mathx.V3(8, 0, 0),
			Att: mathx.QuatIdentity(),
		}),
	)
	h := q.Params.HoverThrottle()
	for i := 0; i < 3*400; i++ {
		q.Step([4]float64{h, h, h, h}, 1.0/400)
		if crashed, _ := q.Crashed(); crashed {
			break
		}
	}
	crashed, reason := q.Crashed()
	if !crashed {
		t.Fatalf("vehicle flew through wall; pos=%v", q.State().Pos)
	}
	if want := `collision with obstacle "wall"`; reason != want {
		t.Errorf("reason = %q, want %q", reason, want)
	}
}

func TestQuadBatteryDrainsAndKillsMotors(t *testing.T) {
	p := IRISPlusParams()
	p.BatteryCapacity = 0.2 // tiny battery, drains in under a second
	q, err := NewQuad(p, WithInitialState(State{
		Pos: mathx.V3(0, 0, -20),
		Att: mathx.QuatIdentity(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	h := p.HoverThrottle()
	for i := 0; i < 10*400; i++ {
		q.Step([4]float64{h, h, h, h}, 1.0/400)
		if crashed, _ := q.Crashed(); crashed {
			break
		}
	}
	if !q.Battery().Depleted() {
		t.Fatalf("battery not depleted: %v mAh left", q.Battery().RemainmAh)
	}
	if crashed, _ := q.Crashed(); !crashed {
		t.Error("vehicle with dead battery did not fall and crash")
	}
	if v := q.Battery().Voltage; !mathx.ApproxEqual(v, 0.8*p.BatteryVoltage, 1e-9) {
		t.Errorf("depleted voltage = %v, want %v", v, 0.8*p.BatteryVoltage)
	}
}

func TestQuadReset(t *testing.T) {
	q := newTestQuad(t)
	q.Step([4]float64{1, 1, 1, 1}, 0.1)
	q.crash("test")
	q.Reset(mathx.V3(1, 2, -3))
	if crashed, _ := q.Crashed(); crashed {
		t.Error("Reset did not clear crash")
	}
	if q.State().Pos != mathx.V3(1, 2, -3) {
		t.Errorf("Reset pos = %v", q.State().Pos)
	}
	if q.Time() != 0 {
		t.Errorf("Reset time = %v", q.Time())
	}
	if q.Battery().Fraction() != 1 {
		t.Errorf("Reset battery fraction = %v", q.Battery().Fraction())
	}
}

func TestQuadEnergyConservationInFreeFall(t *testing.T) {
	// With drag zeroed, free-fall must match kinematics: v = g·t.
	p := IRISPlusParams()
	p.LinearDrag = mathx.Vec3{}
	q, err := NewQuad(p, WithInitialState(State{
		Pos: mathx.V3(0, 0, -1000),
		Att: mathx.QuatIdentity(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	const dt = 1.0 / 400
	for i := 0; i < 400; i++ { // 1 s
		q.Step([4]float64{}, dt)
	}
	if vz := q.State().Vel.Z; !mathx.ApproxEqual(vz, Gravity, 1e-6) {
		t.Errorf("free-fall speed after 1 s = %v, want %v", vz, Gravity)
	}
}

func TestQuadStepGuards(t *testing.T) {
	q := newTestQuad(t)
	before := q.State()
	q.Step([4]float64{0.5, 0.5, 0.5, 0.5}, 0) // zero dt is a no-op
	if q.State() != before {
		t.Error("zero-dt step changed state")
	}
	q.Step([4]float64{5, -3, 0.5, 0.5}, 1.0/400) // commands clamped
	for i, m := range q.State().Motor {
		if m < 0 || m > 1 {
			t.Errorf("motor %d = %v out of [0,1]", i, m)
		}
	}
}

func TestPixhawk4ParamsValid(t *testing.T) {
	if err := Pixhawk4Params().Validate(); err != nil {
		t.Errorf("Pixhawk4Params invalid: %v", err)
	}
}

// TestQuadStepNonFinite checks that NaN/±Inf motor commands or dt crash the
// vehicle loudly instead of poisoning the state: a NaN dt used to slip past
// the dt <= 0 guard and propagate through the integrator.
func TestQuadStepNonFinite(t *testing.T) {
	bad := []struct {
		name string
		cmd  [4]float64
		dt   float64
	}{
		{"nan-cmd", [4]float64{math.NaN(), 0.5, 0.5, 0.5}, 1.0 / 400},
		{"inf-cmd", [4]float64{0.5, math.Inf(1), 0.5, 0.5}, 1.0 / 400},
		{"neg-inf-cmd", [4]float64{0.5, 0.5, math.Inf(-1), 0.5}, 1.0 / 400},
		{"nan-dt", [4]float64{0.5, 0.5, 0.5, 0.5}, math.NaN()},
		{"inf-dt", [4]float64{0.5, 0.5, 0.5, 0.5}, math.Inf(1)},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			q := newTestQuad(t)
			q.Step(tc.cmd, tc.dt)
			if c, reason := q.Crashed(); !c || reason != nonFiniteStep {
				t.Fatalf("crashed=%v reason=%q, want loud non-finite rejection", c, reason)
			}
			if s := q.State(); s != (State{Att: mathx.QuatIdentity()}) {
				t.Fatalf("non-finite step mutated state: %+v", s)
			}
			if q.Time() != 0 {
				t.Fatalf("non-finite step advanced the clock to %v", q.Time())
			}
		})
	}
}
