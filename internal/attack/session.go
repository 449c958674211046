package attack

import (
	"fmt"
	"math"

	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/sensors"
	"github.com/ares-cps/ares/internal/sim"
	"github.com/ares-cps/ares/internal/vars"
)

// TracePoint is one recorded sample of an attack session (16 Hz).
type TracePoint struct {
	// T is the simulation time in seconds.
	T float64
	// RollDeg and DesRollDeg are the true and commanded roll in degrees.
	RollDeg, DesRollDeg float64
	// PitchDeg is the true pitch in degrees.
	PitchDeg float64
	// PathDev is the distance from the mission path in meters.
	PathDev float64
	// CIStat, MLStat and EKFStat are the three detection statistics.
	CIStat, MLStat, EKFStat float64
	// PIDOutP, PIDOutI, PIDOutD are the roll-rate PID term outputs.
	PIDOutP, PIDOutI, PIDOutD float64
	// EKFRollDeg is the estimator's roll in degrees (the ATT.R vs
	// EKF1.Roll pair of Figure 8).
	EKFRollDeg float64
}

// SessionResult summarizes one instrumented flight.
type SessionResult struct {
	// Trace holds the 16 Hz samples.
	Trace []TracePoint
	// Detected* report whether each monitor ever alarmed, and at what
	// time the first alarm fired (-1 if never).
	DetectedCI, DetectedML, DetectedEKF, DetectedVar bool
	FirstAlarmT                                      float64
	// MaxCI, MaxML, MaxEKF, MaxVar are the peak detection statistics.
	MaxCI, MaxML, MaxEKF, MaxVar float64
	// AlarmedVariable names the cell that tripped the variable monitor.
	AlarmedVariable string
	// Recovered reports that the recovery guard engaged; RecoveredAt is
	// the flight time of the engagement (meaningful only when Recovered).
	Recovered   bool
	RecoveredAt float64
	// MaxPathDev is the peak deviation from the mission path.
	MaxPathDev float64
	// FinalPathDev is the deviation at the end of the session.
	FinalPathDev float64
	// Crashed and CrashReason report vehicle loss.
	Crashed     bool
	CrashReason string
	// MissionComplete reports whether every waypoint was reached.
	MissionComplete bool
}

// Detected reports whether any monitor alarmed.
func (r *SessionResult) Detected() bool {
	return r.DetectedCI || r.DetectedML || r.DetectedEKF || r.DetectedVar
}

// SessionConfig configures an instrumented attack flight.
type SessionConfig struct {
	// Mission is flown in AUTO mode. Required.
	Mission *firmware.Mission
	// Strategy is the attack to run; nil flies a benign mission.
	Strategy Strategy
	// AttackStart is when (seconds into the mission) the attack begins.
	AttackStart float64
	// Duration bounds the session in simulated seconds.
	Duration float64
	// Seed controls sensor noise; distinct seeds give distinct trials.
	Seed int64
	// Monitors: fitted detectors to run; nil entries are skipped.
	CI  *defense.ControlInvariants
	ML  *defense.MLMonitor
	EKF *defense.EKFResidual
	// VarMon is the variable-level countermeasure; it watches the live
	// values of its trained variable set every tick.
	VarMon *defense.VariableMonitor
	// Recovery is the SpecGuard-style recovery defense: its detector runs
	// in the loop and, from the first alarm on, the guard's conservative
	// recovery controller clamps the attitude commands and bleeds the
	// integrators every tick.
	Recovery *defense.RecoveryGuard
	// World adds obstacles/forbidden zones to the environment.
	World *sim.World
	// Vehicle selects the airframe; zero value flies the IRIS+.
	Vehicle sim.VehicleParams
}

// NewFirmware builds the standard evaluation vehicle: an IRIS+ with default
// sensors, seeded for reproducibility.
func NewFirmware(seed int64) (*firmware.Firmware, error) {
	sensorCfg := sensors.DefaultConfig()
	sensorCfg.Seed = seed
	return firmware.New(firmware.Config{Sensors: sensorCfg})
}

// CalibrateMonitors flies three benign missions (seed, seed+1, seed+2) and
// trains/identifies the CI and ML monitors on the combined trace, returning
// fresh fitted monitors. Multiple flights make the benign-error calibration
// robust to per-flight sensor-noise variance — a single lucky flight would
// otherwise set an over-tight scale that false-alarms on its siblings.
func CalibrateMonitors(mission *firmware.Mission, seed int64) (*defense.ControlInvariants, *defense.MLMonitor, error) {
	return CalibrateMonitorsFor(mission, sim.VehicleParams{}, seed)
}

// CalibrateMonitorsFor is CalibrateMonitors with an explicit airframe (the
// zero value flies the IRIS+ default).
func CalibrateMonitorsFor(mission *firmware.Mission, vehicle sim.VehicleParams, seed int64) (*defense.ControlInvariants, *defense.MLMonitor, error) {
	var ciTrace []defense.CISample
	var mlTrace []defense.MLSample
	var dt float64
	for m := int64(0); m < 3; m++ {
		sensorCfg := sensors.DefaultConfig()
		sensorCfg.Seed = seed + m //areslint:ignore seedarith golden-pinned
		fw, err := firmware.New(firmware.Config{Sensors: sensorCfg, Vehicle: vehicle})
		if err != nil {
			return nil, nil, err
		}
		dt = fw.DT()
		if err := fw.Takeoff(altitudeOf(mission)); err != nil {
			return nil, nil, err
		}
		fw.RunFor(10)
		fw.LoadMission(cloneMission(mission))
		if err := fw.StartMission(); err != nil {
			return nil, nil, err
		}

		obs := NewCIObserver(fw)
		maxTicks := int(120 / fw.DT())
		minTicks := int(30 / fw.DT()) // hover missions complete instantly
		for i := 0; i < maxTicks && (!fw.Mission().Complete() || i < minTicks); i++ {
			fw.Step()
			ciTrace = append(ciTrace, obs.Sample(fw))
			mlTrace = append(mlTrace, MLSampleOf(fw))
		}
		if crashed, reason := fw.Quad().Crashed(); crashed {
			return nil, nil, fmt.Errorf("attack: calibration flight crashed: %s", reason)
		}
	}

	ci := defense.NewControlInvariants()
	if err := ci.Identify(ciTrace); err != nil {
		return nil, nil, fmt.Errorf("attack: CI identification: %w", err)
	}
	ml := defense.NewMLMonitor(dt)
	if err := ml.Train(mlTrace); err != nil {
		return nil, nil, fmt.Errorf("attack: ML training: %w", err)
	}
	return ci, ml, nil
}

// RunSession executes one instrumented flight and returns its result.
func RunSession(cfg SessionConfig) (*SessionResult, error) {
	if cfg.Mission == nil || cfg.Mission.Len() == 0 {
		return nil, fmt.Errorf("attack: session needs a mission")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 60
	}
	sensorCfg := sensors.DefaultConfig()
	sensorCfg.Seed = cfg.Seed
	fw, err := firmware.New(firmware.Config{
		World:   cfg.World,
		Sensors: sensorCfg,
		Vehicle: cfg.Vehicle,
	})
	if err != nil {
		return nil, err
	}
	if cfg.CI != nil {
		cfg.CI.Reset()
	}
	if cfg.ML != nil {
		cfg.ML.Reset()
	}
	if cfg.EKF != nil {
		cfg.EKF.Reset()
	}
	if cfg.VarMon != nil {
		cfg.VarMon.Reset()
	}
	if cfg.Recovery != nil {
		if err := cfg.Recovery.Validate(); err != nil {
			return nil, err
		}
		cfg.Recovery.Reset()
	}

	if err := fw.Takeoff(altitudeOf(cfg.Mission)); err != nil {
		return nil, err
	}
	fw.RunFor(10)
	fw.LoadMission(cloneMission(cfg.Mission))
	if err := fw.StartMission(); err != nil {
		return nil, err
	}

	res := &SessionResult{FirstAlarmT: -1}
	ciObs := NewCIObserver(fw)
	var varRefs []vars.Ref
	var varVals []float64
	if cfg.VarMon != nil {
		for _, name := range cfg.VarMon.Names() {
			ref, ok := fw.Vars().Lookup(name)
			if !ok {
				return nil, fmt.Errorf("attack: variable monitor watches unknown %q", name)
			}
			varRefs = append(varRefs, ref)
		}
		varVals = make([]float64, len(varRefs))
	}
	path := cfg.Mission.Path()
	ticks := int(cfg.Duration / fw.DT())
	logEvery := int(math.Round(1 / (16 * fw.DT()))) // 16 Hz trace
	if logEvery < 1 {
		logEvery = 1
	}
	attackBegun := false
	start := fw.Time()

	var recRefs defense.RecoveryRefs
	if cfg.Recovery != nil {
		if recRefs, err = RecoveryRefsOf(fw); err != nil {
			return nil, err
		}
	}

	// The strategy fires from the mid-pipeline hook: after the navigator
	// writes the attitude command, before the stabilizer consumes it —
	// the timing an attacker with code in the stabilizer region has. The
	// recovery clamp runs after the strategy from the same hook: the
	// legitimate firmware gets the last word on what the stabilizer sees.
	var hookNow float64
	fw.SetAttackHook(func() {
		if attackBegun && cfg.Strategy != nil {
			cfg.Strategy.Apply(fw, hookNow)
		}
		if cfg.Recovery != nil {
			cfg.Recovery.Apply(recRefs)
		}
	})
	defer fw.SetAttackHook(nil)

	for i := 0; i < ticks; i++ {
		now := fw.Time() - start
		if cfg.Strategy != nil && !attackBegun && now >= cfg.AttackStart {
			if err := cfg.Strategy.Begin(fw); err != nil {
				return nil, err
			}
			attackBegun = true
		}
		hookNow = now - cfg.AttackStart
		fw.Step()

		// Feed the monitors at the control rate.
		st := fw.Quad().State()
		roll, pitch, yaw := st.Euler()
		var ciV, mlV, ekfV defense.Verdict
		if cfg.CI != nil {
			ciV = cfg.CI.Observe(ciObs.Sample(fw))
		}
		if cfg.Recovery != nil {
			// The guard's detector verdict reports through the CI channel
			// (it *is* a control-invariants detector, plus a response).
			if v := cfg.Recovery.Observe(ciObs.Sample(fw), now); v.Stat > ciV.Stat || v.Alarm {
				ciV = v
			}
		}
		if cfg.ML != nil {
			mlV = cfg.ML.Observe(MLSampleOf(fw))
		}
		estRoll, _, _ := fw.EKF().Attitude()
		if cfg.EKF != nil {
			ekfV = cfg.EKF.Observe(roll, estRoll)
		}
		if cfg.VarMon != nil {
			for j, ref := range varRefs {
				varVals[j] = ref.Get()
			}
			v := cfg.VarMon.Observe(varVals)
			if v.Stat > res.MaxVar {
				res.MaxVar = v.Stat
			}
			if v.Alarm && !res.DetectedVar {
				res.DetectedVar = true
				res.AlarmedVariable = cfg.VarMon.AlarmedVariable()
				if res.FirstAlarmT < 0 {
					res.FirstAlarmT = now
				}
			}
		}
		updateDetection(res, now, ciV, mlV, ekfV)

		dev := mathx.PathDistance(st.Pos, path)
		if dev > res.MaxPathDev {
			res.MaxPathDev = dev
		}
		res.FinalPathDev = dev

		if i%logEvery == 0 {
			res.Trace = append(res.Trace, TracePoint{
				T:          now,
				RollDeg:    mathx.Deg(roll),
				DesRollDeg: mathx.Deg(varOf(fw, "ATT.DesRoll")),
				PitchDeg:   mathx.Deg(pitch),
				PathDev:    dev,
				CIStat:     ciV.Stat,
				MLStat:     mlV.Stat,
				EKFStat:    ekfV.Stat,
				PIDOutP:    varOf(fw, "PIDR.P"),
				PIDOutI:    varOf(fw, "PIDR.I"),
				PIDOutD:    varOf(fw, "PIDR.D"),
				EKFRollDeg: mathx.Deg(estRoll),
			})
		}
		_ = yaw

		if crashed, reason := fw.Quad().Crashed(); crashed {
			res.Crashed = true
			res.CrashReason = reason
			break
		}
	}
	if cfg.Recovery != nil && cfg.Recovery.Engaged() {
		res.Recovered = true
		res.RecoveredAt = cfg.Recovery.EngagedAt()
	}
	res.MissionComplete = fw.Mission().Complete()
	return res, nil
}

func updateDetection(res *SessionResult, now float64, ci, ml, ekf defense.Verdict) {
	if ci.Stat > res.MaxCI {
		res.MaxCI = ci.Stat
	}
	if ml.Stat > res.MaxML {
		res.MaxML = ml.Stat
	}
	if ekf.Stat > res.MaxEKF {
		res.MaxEKF = ekf.Stat
	}
	alarm := false
	if ci.Alarm && !res.DetectedCI {
		res.DetectedCI = true
		alarm = true
	}
	if ml.Alarm && !res.DetectedML {
		res.DetectedML = true
		alarm = true
	}
	if ekf.Alarm && !res.DetectedEKF {
		res.DetectedEKF = true
		alarm = true
	}
	if alarm && res.FirstAlarmT < 0 {
		res.FirstAlarmT = now
	}
}

// RecoveryRefsOf resolves the canonical recovery-actuation cells of the
// SpecGuard-style guard against a running firmware: the attitude-command
// handoff cells it clamps and the rate-PID integrators it bleeds. The
// defense package stays firmware-agnostic; this is the wiring layer.
func RecoveryRefsOf(fw *firmware.Firmware) (defense.RecoveryRefs, error) {
	var refs defense.RecoveryRefs
	for _, name := range []string{"CMD.Roll", "CMD.Pitch"} {
		ref, ok := fw.Vars().Lookup(name)
		if !ok {
			return defense.RecoveryRefs{}, fmt.Errorf("attack: recovery cell %q not registered", name)
		}
		refs.Commands = append(refs.Commands, ref)
	}
	for _, name := range []string{"PIDR.INTEG", "PIDP.INTEG"} {
		ref, ok := fw.Vars().Lookup(name)
		if !ok {
			return defense.RecoveryRefs{}, fmt.Errorf("attack: recovery cell %q not registered", name)
		}
		refs.Integrators = append(refs.Integrators, ref)
	}
	return refs, nil
}

// CIObserver extracts the control-invariants observation. Following Choi
// et al.'s implementation, the monitor reads the attitude *targets the
// firmware itself computed* (ATT.DesRoll/DesPitch/DesYaw) — it has no
// independent source of expected behavior. This is precisely the soundness
// gap ARES exploits: a manipulation that shifts the target and lets the
// vehicle track it stays self-consistent, while an attack that makes the
// vehicle diverge from its own targets (e.g. forcing the rate integrator)
// is caught.
type CIObserver struct{}

func NewCIObserver(_ *firmware.Firmware) *CIObserver { return &CIObserver{} }

// Sample builds one CI observation from the running firmware.
func (o *CIObserver) Sample(fw *firmware.Firmware) defense.CISample {
	roll, pitch, yaw := fw.Quad().State().Euler()
	return defense.CISample{
		Roll: roll, Pitch: pitch, Yaw: yaw,
		DesRoll:  varOf(fw, "ATT.DesRoll"),
		DesPitch: varOf(fw, "ATT.DesPitch"),
		DesYaw:   varOf(fw, "ATT.DesYaw"),
	}
}

// MLSample extracts the ML-monitor observation: the roll-rate controller's
// target, measurement and output.
func MLSampleOf(fw *firmware.Firmware) defense.MLSample {
	return defense.MLSample{
		Target: varOf(fw, "RATE.RDes"),
		Actual: fw.LastReading().IMU.Gyro.X,
		Output: varOf(fw, "PIDR.OUT"),
	}
}

func varOf(fw *firmware.Firmware, name string) float64 {
	if ref, ok := fw.Vars().Lookup(name); ok {
		return ref.Get()
	}
	return 0
}

func altitudeOf(m *firmware.Mission) float64 {
	if m.Len() == 0 {
		return 10
	}
	return -m.Target().Z
}

func cloneMission(m *firmware.Mission) *firmware.Mission {
	wps := make([]firmware.Waypoint, 0, m.Len())
	for _, p := range m.Path() {
		wps = append(wps, firmware.Waypoint{Pos: p})
	}
	out := firmware.NewMission(wps)
	out.AcceptRadius = m.AcceptRadius
	return out
}
