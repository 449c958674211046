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
	// Monitors is the in-loop defense set the flight runs.
	Monitors Monitors
	// Vehicle selects the airframe; zero value flies the IRIS+.
	Vehicle sim.VehicleParams
}

// CalibrateMonitors flies three benign missions (seed, seed+1, seed+2) and
// identifies the CI monitor on the combined trace, returning a fresh
// fitted monitor. Multiple flights make the benign-error calibration
// robust to per-flight sensor-noise variance — a single lucky flight would
// otherwise set an over-tight scale that false-alarms on its siblings.
func CalibrateMonitors(mission *firmware.Mission, seed int64) (*defense.ControlInvariants, error) {
	return CalibrateMonitorsFor(mission, sim.VehicleParams{}, seed)
}

// CalibrateMonitorsFor is CalibrateMonitors with an explicit airframe (the
// zero value flies the IRIS+ default).
func CalibrateMonitorsFor(mission *firmware.Mission, vehicle sim.VehicleParams, seed int64) (*defense.ControlInvariants, error) {
	var trace ciTrace
	if _, err := calibrationFlights(mission, vehicle, seed, ciCells, func(fw *firmware.Firmware, des []vars.Ref) {
		trace.add(ciSampleOf(fw, des))
	}); err != nil {
		return nil, err
	}
	ci := defense.NewControlInvariants()
	if err := ci.Identify(trace...); err != nil {
		return nil, fmt.Errorf("attack: CI identification: %w", err)
	}
	return ci, nil
}

// ciChunkSamples is the number of samples per chunk of a calibration
// trace, which bounds the trace's unused capacity to one chunk.
const ciChunkSamples = 1024

// ciTrace is a calibration trace in fixed-size chunks, in order. It grows
// without copying: one slice regrown by append allocated six times the
// bytes of the line:60 trace it ended up holding.
type ciTrace [][]defense.CISample

// add appends one sample.
func (t *ciTrace) add(s defense.CISample) {
	if n := len(*t); n == 0 || len((*t)[n-1]) == ciChunkSamples {
		*t = append(*t, make([]defense.CISample, 0, ciChunkSamples))
	}
	last := &(*t)[len(*t)-1]
	*last = append(*last, s)
}

// CalibrateML trains the ML monitor on the three benign flights
// CalibrateMonitors flies.
func CalibrateML(mission *firmware.Mission, seed int64) (*defense.MLMonitor, error) {
	var trace []defense.MLSample
	dt, err := calibrationFlights(mission, sim.VehicleParams{}, seed, mlCells, func(fw *firmware.Firmware, cells []vars.Ref) {
		trace = append(trace, mlSampleOf(fw, cells))
	})
	if err != nil {
		return nil, err
	}
	ml := defense.NewMLMonitor(dt)
	if err := ml.Train(trace); err != nil {
		return nil, fmt.Errorf("attack: ML training: %w", err)
	}
	return ml, nil
}

// calibrationFlights flies the three benign calibration missions, calling
// sample after every firmware tick with the flight's cells resolved from
// names, and returns the tick length.
func calibrationFlights(mission *firmware.Mission, vehicle sim.VehicleParams, seed int64, names []string, sample func(*firmware.Firmware, []vars.Ref)) (float64, error) {
	var dt float64
	for m := int64(0); m < 3; m++ {
		fw, err := firmware.Launch(firmware.Config{
			Sensors: sensors.Seeded(seed + m), //areslint:ignore seedarith golden-pinned
			Vehicle: vehicle,
		}, mission, 10)
		if err != nil {
			return 0, err
		}
		cells, err := lookupAll(fw, names)
		if err != nil {
			return 0, err
		}
		dt = fw.DT()
		maxTicks := int(120 / fw.DT())
		minTicks := int(30 / fw.DT()) // hover missions complete instantly
		for i := 0; i < maxTicks && (!fw.Mission().Complete() || i < minTicks); i++ {
			fw.Step()
			sample(fw, cells)
		}
		if crashed, reason := fw.Quad().Crashed(); crashed {
			return 0, fmt.Errorf("attack: calibration flight crashed: %s", reason)
		}
	}
	return dt, nil
}

// RunSession executes one instrumented flight and returns its result: the
// strategy loop over a Flight, with the 16 Hz trace and the detection and
// path-deviation bookkeeping.
func RunSession(cfg SessionConfig) (*SessionResult, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 60
	}
	attackBegun := false
	var hookNow float64
	fw, err := firmware.Launch(firmware.Config{
		Sensors: sensors.Seeded(cfg.Seed),
		Vehicle: cfg.Vehicle,
	}, cfg.Mission, 10)
	if err != nil {
		return nil, err
	}
	fl, err := Arm(fw, cfg.Monitors, func(fw *firmware.Firmware) {
		if attackBegun {
			cfg.Strategy.Apply(fw, hookNow)
		}
	})
	if err != nil {
		return nil, err
	}

	res := &SessionResult{FirstAlarmT: -1}
	path := cfg.Mission.Path()
	ticks := int(cfg.Duration / fw.DT())
	logEvery := max(1, int(math.Round(1/(16*fw.DT())))) // 16 Hz trace
	var v Verdicts
	for i := 0; i < ticks; i++ {
		now := fl.Now()
		if cfg.Strategy != nil && !attackBegun && now >= cfg.AttackStart {
			if err := cfg.Strategy.Begin(fw); err != nil {
				return nil, err
			}
			attackBegun = true
		}
		hookNow = now - cfg.AttackStart
		flying := fl.Tick(&v)

		// The guard's detector verdict reports through the CI channel (it
		// *is* a control-invariants detector, plus a response).
		ciV := v.CI
		if cfg.Monitors.Recovery != nil && (v.Guard.Stat > ciV.Stat || v.Guard.Alarm) {
			ciV = v.Guard
		}
		alarm := note(&res.MaxCI, &res.DetectedCI, ciV)
		alarm = note(&res.MaxML, &res.DetectedML, v.ML) || alarm
		alarm = note(&res.MaxEKF, &res.DetectedEKF, v.EKF) || alarm
		if note(&res.MaxVar, &res.DetectedVar, v.Var) {
			res.AlarmedVariable = cfg.Monitors.VarMon.AlarmedVariable()
			alarm = true
		}
		if alarm && res.FirstAlarmT < 0 {
			res.FirstAlarmT = now
		}

		dev := mathx.PathDistance(fw.Quad().StateRef().Pos, path)
		if dev > res.MaxPathDev {
			res.MaxPathDev = dev
		}
		res.FinalPathDev = dev

		if i%logEvery == 0 {
			roll, pitch, _ := fw.Quad().Euler()
			estRoll, _, _ := fw.EKF().Attitude()
			res.Trace = append(res.Trace, TracePoint{
				T:          now,
				RollDeg:    mathx.Deg(roll),
				DesRollDeg: mathx.Deg(varOf(fw, "ATT.DesRoll")),
				PitchDeg:   mathx.Deg(pitch),
				PathDev:    dev,
				CIStat:     ciV.Stat,
				MLStat:     v.ML.Stat,
				EKFStat:    v.EKF.Stat,
				PIDOutP:    varOf(fw, "PIDR.P"),
				PIDOutI:    varOf(fw, "PIDR.I"),
				PIDOutD:    varOf(fw, "PIDR.D"),
				EKFRollDeg: mathx.Deg(estRoll),
			})
		}

		if !flying {
			res.Crashed = true
			_, res.CrashReason = fw.Quad().Crashed()
			break
		}
	}
	if cfg.Monitors.Recovery != nil && cfg.Monitors.Recovery.Engaged() {
		res.Recovered = true
		res.RecoveredAt = cfg.Monitors.Recovery.EngagedAt()
	}
	res.MissionComplete = fw.Mission().Complete()
	return res, nil
}

// note folds one tick's verdict into a monitor's peak statistic and
// detection flag, reporting whether it is the monitor's first alarm.
func note(peak *float64, detected *bool, v defense.Verdict) bool {
	if v.Stat > *peak {
		*peak = v.Stat
	}
	if !v.Alarm || *detected {
		return false
	}
	*detected = true
	return true
}
