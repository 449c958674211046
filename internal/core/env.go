package core

import (
	"fmt"
	"strings"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/rl"
	"github.com/ares-cps/ares/internal/sensors"
	"github.com/ares-cps/ares/internal/sim"
	"github.com/ares-cps/ares/internal/vars"
)

// EnvConfig configures the RL attack environments.
type EnvConfig struct {
	// Variable is the TSVL state variable the agent manipulates, and
	// Region the compromised MPU region it lives in.
	Variable string
	Region   string
	// MaxAction bounds the per-action manipulation magnitude.
	MaxAction float64
	// ActionInterval is the seconds between agent actions (paper: 0.3).
	ActionInterval float64
	// Mission is the flight the attack disrupts; nil uses a 60 m line.
	Mission *firmware.Mission
	// Detector, when non-nil, runs in the loop and ends the episode with
	// the −∞ penalty on alarm (the Section V-C reward shaping).
	Detector *defense.ControlInvariants
	// Recovery, when non-nil, runs the SpecGuard-style recovery defense in
	// the loop: its detector observes every tick and, once engaged, the
	// conservative recovery controller clamps the attitude commands and
	// bleeds the integrators. Unlike Detector, an alarm does NOT terminate
	// the episode — the defender's response is recovery, not abort — so
	// the evaluation measures the *physical* outcome the attack achieves
	// against an actively recovering vehicle. The detection itself is
	// still recorded (Alarmed/EvalDetected), so the campaign success
	// criterion — an undetected failure — already counts a recovered
	// flight as a defended one.
	Recovery *defense.RecoveryGuard
	// Seed drives per-episode variation.
	Seed int64
	// SetupSeconds is the pre-mission flight time (takeoff + settle).
	SetupSeconds float64
	// PerTick selects the manipulation semantics. False (default): each
	// action adds its amount to the variable once — right for stateful
	// cells like the PID integrator, which hold the injected value.
	// True: the amount is re-applied at every 400 Hz tick during the
	// action interval — required for cells the firmware rewrites each
	// cycle (e.g. the CMD.* handoff), where the injection acts as a
	// standing offset.
	PerTick bool
}

func (c *EnvConfig) applyDefaults() {
	if c.Region == "" {
		c.Region = firmware.RegionStabilizer
	}
	if c.MaxAction == 0 {
		c.MaxAction = 0.1
	}
	if c.ActionInterval == 0 {
		c.ActionInterval = 0.3
	}
	if c.Mission == nil {
		c.Mission = firmware.LineMission(60, 10)
	}
	if c.SetupSeconds == 0 {
		c.SetupSeconds = 8
	}
}

// baseEnv holds the machinery shared by both attack environments.
type baseEnv struct {
	cfg     EnvConfig
	fw      *firmware.Firmware
	ref     vars.Ref
	recRefs defense.RecoveryRefs
	episode int
	ticks   int
	alarmed bool
	world   *sim.World

	// Injection state consumed by the firmware's mid-pipeline hook.
	pendDelta float64
	pendOnce  bool
}

// reset rebuilds the episode: fresh firmware (per-episode sensor seed),
// takeoff, mission start — the Gym env reset of Section V-A ("landing,
// disarming the vehicle, and resetting it back into its initial position"
// realized as a clean re-launch).
func (b *baseEnv) reset() error {
	fw, err := firmware.Launch(firmware.Config{
		World:   b.world,
		Sensors: sensors.Seeded(b.cfg.Seed + int64(b.episode)), //areslint:ignore seedarith golden-pinned
	}, b.cfg.Mission, b.cfg.SetupSeconds)
	if err != nil {
		return err
	}
	b.fw = fw
	b.episode++
	b.alarmed = false

	ref, err := fw.Memory().Access(b.cfg.Region, b.cfg.Variable, true)
	if err != nil {
		return err
	}
	b.ref = ref
	b.pendDelta, b.pendOnce = 0, false
	if b.cfg.Recovery != nil {
		b.cfg.Recovery.Reset()
		if b.recRefs, err = attack.RecoveryRefsOf(fw); err != nil {
			return err
		}
	}
	// The injection fires from the firmware's mid-pipeline hook, after
	// the navigator writes its commands and before the stabilizer
	// consumes them — so both stateful cells (INTEG) and per-cycle
	// rewritten cells (CMD.*) are manipulable. The recovery clamp runs
	// after the injection so the legitimate defense gets the last word on
	// the handoff cells, exactly as in the attack-session path.
	fw.SetAttackHook(func() {
		switch {
		case b.cfg.PerTick:
			b.ref.Add(b.pendDelta)
		case b.pendOnce:
			b.ref.Add(b.pendDelta)
			b.pendOnce = false
		}
		if b.cfg.Recovery != nil {
			b.cfg.Recovery.Apply(b.recRefs)
		}
	})
	if b.cfg.Detector != nil {
		b.cfg.Detector.Reset()
	}
	b.ticks = int(b.cfg.ActionInterval / fw.DT())
	if b.ticks < 1 {
		b.ticks = 1
	}
	return nil
}

// advance injects the action and runs one action interval, returning
// whether a detector alarm fired.
func (b *baseEnv) advance(action float64) bool {
	b.pendDelta = mathx.Clamp(action, -b.cfg.MaxAction, b.cfg.MaxAction)
	b.pendOnce = true
	for i := 0; i < b.ticks; i++ {
		b.fw.Step()
		if b.cfg.Detector != nil {
			if v := b.cfg.Detector.Observe(attack.CISampleOf(b.fw)); v.Alarm {
				b.alarmed = true
			}
		}
		if b.cfg.Recovery != nil {
			// The guard's detection is recorded but deliberately not fed
			// back to the reward: recovery responds physically instead of
			// aborting, so the episode continues and the evaluation
			// measures what the attack achieves against the clamps.
			if v := b.cfg.Recovery.Observe(attack.CISampleOf(b.fw), b.fw.Time()); v.Alarm {
				b.alarmed = true
			}
		}
		if crashed, _ := b.fw.Quad().Crashed(); crashed {
			break
		}
	}
	if b.cfg.Recovery != nil {
		return false
	}
	return b.alarmed
}

// recovered reports whether the recovery guard engaged this episode.
func (b *baseEnv) recovered() bool {
	return b.cfg.Recovery != nil && b.cfg.Recovery.Engaged()
}

// validateConfig checks at construction time that the mission can launch,
// the configured variable is reachable from the configured region, and
// the recovery guard is one attack.RunSession would accept, so a
// misconfiguration fails here rather than in Reset or silently in flight.
func validateConfig(cfg EnvConfig) error {
	if cfg.Mission.Len() == 0 {
		return fmt.Errorf("core: env needs a mission")
	}
	if cfg.Recovery != nil {
		if err := cfg.Recovery.Validate(); err != nil {
			return err
		}
	}
	fw, err := firmware.New(firmware.Config{})
	if err != nil {
		return err
	}
	if _, err := fw.Memory().Access(cfg.Region, cfg.Variable, true); err != nil {
		return fmt.Errorf("core: env target: %w", err)
	}
	return nil
}

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
	cfg.applyDefaults()
	if cfg.Variable == "" {
		return nil, fmt.Errorf("core: deviation env needs a target variable")
	}
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	e := &DeviationEnv{
		baseEnv: baseEnv{cfg: cfg},
		reward:  rl.NewUncontrolledReward(),
	}
	e.path = cfg.Mission.Path()
	return e, nil
}

// Reset implements rl.Env.
func (e *DeviationEnv) Reset() []float64 {
	if err := e.reset(); err != nil {
		// An environment that cannot reset cannot train; surfacing the
		// error through a panic here is a programming/configuration bug,
		// not a runtime condition (mission and variable were validated
		// at construction).
		panic(fmt.Sprintf("core: deviation env reset: %v", err))
	}
	e.reward.Reset()
	e.reward.Step(e.pathDist(), false)
	return e.observe()
}

// Step implements rl.Env.
func (e *DeviationEnv) Step(action float64) ([]float64, float64, bool) {
	alarm := e.advance(action)
	dist := e.pathDist()
	reward, done := e.reward.Step(dist, alarm)
	if crashed, _ := e.fw.Quad().Crashed(); crashed {
		done = true
	}
	return e.observe(), reward, done
}

// ObservationSize implements rl.Env.
func (e *DeviationEnv) ObservationSize() int { return 5 }

// ActionBounds implements rl.Env.
func (e *DeviationEnv) ActionBounds() (float64, float64) {
	return -e.cfg.MaxAction, e.cfg.MaxAction
}

// PathDistance exposes the current deviation (for evaluation rollouts).
func (e *DeviationEnv) PathDistance() float64 { return e.pathDist() }

// Alarmed reports whether the in-loop detector fired this episode.
func (e *DeviationEnv) Alarmed() bool { return e.alarmed }

// Firmware exposes the running stack (read-only use in evaluations).
func (e *DeviationEnv) Firmware() *firmware.Firmware { return e.fw }

func (e *DeviationEnv) pathDist() float64 {
	return mathx.PathDistance(e.fw.Quad().State().Pos, e.path)
}

// observe builds the normalized observation: deviation, roll, roll rate,
// manipulated-variable value, mission progress.
func (e *DeviationEnv) observe() []float64 {
	st := e.fw.Quad().State()
	roll, _, _ := st.Euler()
	progress := 0.0
	if n := len(e.path); n > 1 {
		total := e.path[0].Dist(e.path[n-1])
		if total > 0 {
			progress = mathx.Clamp(st.Pos.Dist(e.path[0])/total, 0, 2)
		}
	}
	return []float64{
		e.pathDist() / 10,
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
	cfg.applyDefaults()
	if cfg.Variable == "" {
		return nil, fmt.Errorf("core: crash env needs a target variable")
	}
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	world := &sim.World{}
	world.AddObstacle(obstacle)
	e := &CrashEnv{
		baseEnv:  baseEnv{cfg: cfg, world: world},
		reward:   rl.NewControlledReward(),
		obstacle: obstacle,
	}
	// Contact distance: the vehicle's physical extent.
	e.reward.Epsilon = 0.3
	return e, nil
}

// Reset implements rl.Env.
func (e *CrashEnv) Reset() []float64 {
	if err := e.reset(); err != nil {
		panic(fmt.Sprintf("core: crash env reset: %v", err))
	}
	e.reward.Reset()
	e.reward.Step(e.goalDist(), false)
	return e.observe()
}

// Step implements rl.Env.
func (e *CrashEnv) Step(action float64) ([]float64, float64, bool) {
	alarm := e.advance(action)
	dist := e.goalDist()
	// A registered collision with the target obstacle is goal contact
	// even if the crash handler froze the vehicle just outside Epsilon.
	if crashed, reason := e.fw.Quad().Crashed(); crashed &&
		strings.Contains(reason, e.obstacle.Name) {
		dist = 0
	}
	reward, done := e.reward.Step(dist, alarm)
	if crashed, _ := e.fw.Quad().Crashed(); crashed {
		done = true
	}
	return e.observe(), reward, done
}

// ObservationSize implements rl.Env.
func (e *CrashEnv) ObservationSize() int { return 5 }

// ActionBounds implements rl.Env.
func (e *CrashEnv) ActionBounds() (float64, float64) {
	return -e.cfg.MaxAction, e.cfg.MaxAction
}

// GoalDistance exposes the distance to the forbidden zone.
func (e *CrashEnv) GoalDistance() float64 { return e.goalDist() }

// Firmware exposes the running stack.
func (e *CrashEnv) Firmware() *firmware.Firmware { return e.fw }

func (e *CrashEnv) goalDist() float64 {
	return e.obstacle.Box.Distance(e.fw.Quad().State().Pos)
}

func (e *CrashEnv) observe() []float64 {
	st := e.fw.Quad().State()
	roll, _, _ := st.Euler()
	center := e.obstacle.Box.Center()
	return []float64{
		e.goalDist() / 10,
		(center.X - st.Pos.X) / 10,
		(center.Y - st.Pos.Y) / 10,
		roll,
		e.ref.Get(),
	}
}
