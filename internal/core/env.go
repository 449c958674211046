package core

import (
	"fmt"
	"math"
	"strings"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/rl"
	"github.com/ares-cps/ares/internal/sensors"
	"github.com/ares-cps/ares/internal/sim"
	"github.com/ares-cps/ares/internal/vars"
)

// ActionInterval is the seconds between agent actions (the paper's 0.3 s).
const ActionInterval = 0.3

// setupSeconds is the pre-mission flight time (takeoff + settle) of every
// episode.
const setupSeconds = 8

// EnvConfig configures the RL attack environments. The agent writes from
// the compromised stabilizer MPU region.
type EnvConfig struct {
	// Variable is the TSVL state variable the agent manipulates.
	Variable string
	// MaxAction bounds the per-action manipulation magnitude.
	MaxAction float64
	// Mission is the flight the attack disrupts; nil uses a 60 m line.
	Mission *firmware.Mission
	// Monitors is the in-loop defense set. A CI, ML, EKF or variable
	// monitor alarm ends the episode with the −∞ penalty (the Section V-C
	// reward shaping). The SpecGuard-style recovery guard's alarm does
	// not: its detector observes every tick and, once engaged, the
	// conservative recovery controller clamps the attitude commands and
	// bleeds the integrators — the defender's response is recovery, not
	// abort — so the evaluation measures the *physical* outcome the attack
	// achieves against an actively recovering vehicle. The guard's
	// detection is still recorded (Rollout.Detected), so the campaign
	// success criterion — an undetected failure — already counts a
	// recovered flight as a defended one.
	Monitors attack.Monitors
	// Seed drives per-episode variation.
	Seed int64
}

func (c *EnvConfig) applyDefaults() {
	if c.MaxAction == 0 {
		c.MaxAction = 0.1
	}
	if c.Mission == nil {
		c.Mission = firmware.LineMission(60, 10)
	}
}

// baseEnv holds the machinery shared by both attack environments.
type baseEnv struct {
	cfg     EnvConfig
	flight  *attack.Flight
	fw      *firmware.Firmware
	ref     vars.Ref
	episode int
	ticks   int
	// alarmed records any in-loop alarm this episode, the recovery
	// guard's included; detected records only the alarms that end the
	// episode.
	alarmed, detected bool
	world             *sim.World
	// perTick selects the manipulation semantics, derived from the
	// variable name at construction. False: each action adds its amount
	// to the variable once — right for stateful cells like the PID
	// integrator, which hold the injected value. True, for the CMD.*
	// handoff cells the navigator rewrites every cycle: the amount is
	// re-applied at every 400 Hz tick of the action interval, so the
	// injection acts as a standing offset.
	perTick bool

	// Injection state consumed by the flight's injection hook.
	pendDelta float64
	pendOnce  bool
}

// newBaseEnv applies the config defaults and checks that the mission can
// launch, the variable is reachable from the region, and the monitors are
// ones attack.NewFlight accepts, so a misconfiguration fails at
// construction rather than in Reset or silently in flight.
func newBaseEnv(cfg EnvConfig, world *sim.World) (baseEnv, error) {
	cfg.applyDefaults()
	if cfg.Variable == "" {
		return baseEnv{}, fmt.Errorf("core: env needs a target variable")
	}
	if cfg.Mission.Len() == 0 {
		return baseEnv{}, fmt.Errorf("core: env needs a mission")
	}
	if err := cfg.Monitors.Validate(); err != nil {
		return baseEnv{}, err
	}
	fw, err := firmware.New(firmware.Config{})
	if err != nil {
		return baseEnv{}, err
	}
	if _, err := fw.Memory().Access(firmware.RegionStabilizer, cfg.Variable, true); err != nil {
		return baseEnv{}, fmt.Errorf("core: env target: %w", err)
	}
	return baseEnv{cfg: cfg, world: world, perTick: strings.HasPrefix(cfg.Variable, "CMD.")}, nil
}

// reset rebuilds the episode: a fresh attacked flight (per-episode sensor
// seed), takeoff, mission start — the Gym env reset of Section V-A
// ("landing, disarming the vehicle, and resetting it back into its
// initial position" realized as a clean re-launch). An environment that
// cannot reset cannot train, and the mission, variable and monitors were
// validated at construction, so a failure here is a programming bug, not
// a runtime condition: reset panics.
func (b *baseEnv) reset() {
	fl, err := attack.NewFlight(firmware.Config{
		World:   b.world,
		Sensors: sensors.Seeded(b.cfg.Seed + int64(b.episode)), //areslint:ignore seedarith golden-pinned
	}, b.cfg.Mission, setupSeconds, b.cfg.Monitors, b.inject)
	if err == nil {
		b.ref, err = fl.Firmware().Memory().Access(firmware.RegionStabilizer, b.cfg.Variable, true)
	}
	if err != nil {
		panic(fmt.Sprintf("core: env reset: %v", err))
	}
	b.flight, b.fw = fl, fl.Firmware()
	b.episode++
	b.alarmed, b.detected = false, false
	b.pendDelta, b.pendOnce = 0, false
	b.ticks = max(1, int(ActionInterval/b.fw.DT()))
}

// inject is the flight's injection hook. Firing after the navigator
// writes its commands and before the stabilizer consumes them, it can
// manipulate both stateful cells (INTEG) and per-cycle rewritten cells
// (CMD.*).
func (b *baseEnv) inject(*firmware.Firmware) {
	switch {
	case b.perTick:
		b.ref.Add(b.pendDelta)
	case b.pendOnce:
		b.ref.Add(b.pendDelta)
		b.pendOnce = false
	}
}

// advance injects the action and runs one action interval, returning
// whether a CI, ML, EKF or variable monitor has alarmed and whether the
// vehicle crashed. A recovery guard's alarm is recorded but deliberately
// not fed back to the reward: recovery responds physically instead of
// aborting, so the episode continues and the evaluation measures what
// the attack achieves against the clamps.
func (b *baseEnv) advance(action float64) (detected, crashed bool) {
	// A NaN action injects nothing: like ArduPilot's constrain_value, it
	// maps to the midpoint of ±MaxAction, 0. mathx.Clamp passes NaN
	// through, and a NaN written into a controller cell would wreck the
	// plant on the next tick.
	if math.IsNaN(action) {
		action = 0
	}
	b.pendDelta = mathx.Clamp(action, -b.cfg.MaxAction, b.cfg.MaxAction)
	b.pendOnce = true
	var v attack.Verdicts
	for i := 0; i < b.ticks; i++ {
		flying := b.flight.Tick(&v)
		b.detected = b.detected || v.CI.Alarm || v.ML.Alarm || v.EKF.Alarm || v.Var.Alarm
		b.alarmed = b.alarmed || b.detected || v.Guard.Alarm
		if !flying {
			return b.detected, true
		}
	}
	return b.detected, false
}

func (b *baseEnv) base() *baseEnv { return b }

// Firmware exposes the running stack (read-only use in evaluations).
func (b *baseEnv) Firmware() *firmware.Firmware { return b.fw }

// ActionBounds implements rl.Env.
func (b *baseEnv) ActionBounds() (float64, float64) {
	return -b.cfg.MaxAction, b.cfg.MaxAction
}

// ObservationSize implements rl.Env: both environments observe five values.
func (b *baseEnv) ObservationSize() int { return 5 }

// DeviationEnv is the uncontrolled-failure environment (Case Study I): the
// agent manipulates one state variable to push the vehicle off its mission
// path, rewarded by Equation 4.
type DeviationEnv struct {
	baseEnv

	reward *rl.UncontrolledReward
	path   []mathx.Vec3
}

var _ rl.Env = (*DeviationEnv)(nil)

// NewDeviationEnv creates the environment.
func NewDeviationEnv(cfg EnvConfig) (*DeviationEnv, error) {
	base, err := newBaseEnv(cfg, nil)
	if err != nil {
		return nil, err
	}
	return &DeviationEnv{
		baseEnv: base,
		reward:  rl.NewUncontrolledReward(),
		path:    base.cfg.Mission.Path(),
	}, nil
}

// Reset implements rl.Env.
func (e *DeviationEnv) Reset() []float64 {
	e.reset()
	e.reward.Reset()
	e.reward.Step(e.distance(), false)
	return e.observe()
}

// Step implements rl.Env.
func (e *DeviationEnv) Step(action float64) ([]float64, float64, bool) {
	alarm, crashed := e.advance(action)
	reward, done := e.reward.Step(e.distance(), alarm)
	return e.observe(), reward, done || crashed
}

// distance is the vehicle's current deviation from the mission path.
func (e *DeviationEnv) distance() float64 {
	return mathx.PathDistance(e.fw.Quad().State().Pos, e.path)
}

// observe builds the normalized observation: deviation, roll, roll rate,
// manipulated-variable value, mission progress.
func (e *DeviationEnv) observe() []float64 {
	st := e.fw.Quad().StateRef()
	roll, _, _ := e.fw.Quad().Euler()
	progress := 0.0
	if n := len(e.path); n > 1 {
		total := e.path[0].Dist(e.path[n-1])
		if total > 0 {
			progress = mathx.Clamp(st.Pos.Dist(e.path[0])/total, 0, 2)
		}
	}
	return []float64{
		e.distance() / 10,
		roll,
		st.Omega.X,
		e.ref.Get(),
		progress,
	}
}

// CrashEnv is the controlled-failure environment (Case Study II): the agent
// steers the vehicle toward a forbidden zone, rewarded by Equation 5.
type CrashEnv struct {
	baseEnv

	reward   *rl.ControlledReward
	obstacle sim.Obstacle
}

var _ rl.Env = (*CrashEnv)(nil)

// NewCrashEnv creates the environment with the given forbidden zone.
func NewCrashEnv(cfg EnvConfig, obstacle sim.Obstacle) (*CrashEnv, error) {
	world := &sim.World{}
	world.AddObstacle(obstacle)
	base, err := newBaseEnv(cfg, world)
	if err != nil {
		return nil, err
	}
	e := &CrashEnv{
		baseEnv:  base,
		reward:   rl.NewControlledReward(),
		obstacle: obstacle,
	}
	// Contact distance: the vehicle's physical extent.
	e.reward.Epsilon = 0.3
	return e, nil
}

// ForbiddenZone is the Case Study II forbidden zone for a mission whose
// final leg ends at x = size, flown at alt: a wall 8–12 m beside the end
// point, 10 m long and spanning ground to twice the altitude — reachable
// by a lateral push without lying on the benign path.
func ForbiddenZone(size, alt float64) sim.Obstacle {
	return sim.Obstacle{
		Name: "forbidden-zone",
		Box: mathx.AABB{
			Min: mathx.Vec3{X: size - 5, Y: 8, Z: -2 * alt},
			Max: mathx.Vec3{X: size + 5, Y: 12, Z: 0},
		},
	}
}

// Reset implements rl.Env.
func (e *CrashEnv) Reset() []float64 {
	e.reset()
	e.reward.Reset()
	e.reward.Step(e.distance(), false)
	return e.observe()
}

// Step implements rl.Env.
func (e *CrashEnv) Step(action float64) ([]float64, float64, bool) {
	alarm, crashed := e.advance(action)
	dist := e.distance()
	// A registered collision with the target obstacle is goal contact
	// even if the crash handler froze the vehicle just outside Epsilon.
	if _, reason := e.fw.Quad().Crashed(); crashed && strings.Contains(reason, e.obstacle.Name) {
		dist = 0
	}
	reward, done := e.reward.Step(dist, alarm)
	return e.observe(), reward, done || crashed
}

// distance is the vehicle's current distance to the forbidden zone.
func (e *CrashEnv) distance() float64 {
	return e.obstacle.Box.Distance(e.fw.Quad().State().Pos)
}

func (e *CrashEnv) observe() []float64 {
	st := e.fw.Quad().StateRef()
	roll, _, _ := e.fw.Quad().Euler()
	center := e.obstacle.Box.Center()
	return []float64{
		e.distance() / 10,
		(center.X - st.Pos.X) / 10,
		(center.Y - st.Pos.Y) / 10,
		roll,
		e.ref.Get(),
	}
}
