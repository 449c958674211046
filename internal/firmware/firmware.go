package firmware

import (
	"fmt"
	"math"
	"sync"

	"github.com/ares-cps/ares/internal/control"
	"github.com/ares-cps/ares/internal/dataflash"
	"github.com/ares-cps/ares/internal/ekf"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/mavlink"
	"github.com/ares-cps/ares/internal/sensors"
	"github.com/ares-cps/ares/internal/sim"
	"github.com/ares-cps/ares/internal/vars"
)

// Mode is the active flight mode.
type Mode int

// Flight modes, following ArduCopter's semantics.
const (
	ModeStabilize Mode = iota + 1
	ModeGuided
	ModeAuto
	ModeLoiter
	ModeRTL
	ModeLand
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeStabilize:
		return "STABILIZE"
	case ModeGuided:
		return "GUIDED"
	case ModeAuto:
		return "AUTO"
	case ModeLoiter:
		return "LOITER"
	case ModeRTL:
		return "RTL"
	case ModeLand:
		return "LAND"
	default:
		return fmt.Sprintf("MODE(%d)", int(m))
	}
}

// Config assembles a Firmware.
type Config struct {
	// Vehicle selects the airframe; zero value means IRIS+.
	Vehicle sim.VehicleParams
	// Sensors sets sensor noise; zero value means DefaultConfig.
	Sensors sensors.Config
	// LoopHz is the main loop rate (default 400, ArduCopter's rate).
	LoopHz float64
	// LogHz is the dataflash rate (default 16, the paper's logging rate).
	LogHz float64
	// Wind optionally installs a wind model.
	Wind *sim.Wind
	// World optionally installs obstacles.
	World *sim.World
	// LogWriter receives dataflash records when non-nil.
	LogWriter *dataflash.Writer
}

// Firmware is the complete flight stack bound to one simulated vehicle.
type Firmware struct {
	cfg   Config
	quad  *sim.Quad
	suite *sensors.Suite
	est   *ekf.EKF
	sins  *control.SINS
	att   *control.AttitudeController
	pos   *control.PositionController
	mixer control.Mixer

	params  *control.ParamStore
	mission *Mission
	varSet  *vars.Set
	memmap  *MemoryMap

	mode  Mode
	armed bool
	home  mathx.Vec3

	dt        float64
	logEvery  int
	tick      int
	desYaw    float64
	guidedTgt mathx.Vec3

	// Navigator→stabilizer handoff cells. The position cascade writes
	// the attitude command here and the stabilizer reads it back one
	// pipeline stage later — the shared memory inside the stabilizer's
	// MPU region that the paper's attacker can overwrite in flight.
	cmdRoll, cmdPitch, cmdThr float64
	// attackHook, when set, runs between the navigator writing the
	// handoff cells and the stabilizer consuming them (an attacker with
	// code execution in the stabilizer region acts at exactly this
	// point).
	attackHook func()

	// Live sensor/dynamic copies registered in the variable set.
	gyrX, gyrY, gyrZ    float64
	accX, accY, accZ    float64
	gyr2X, gyr2Y, gyr2Z float64
	acc2X, acc2Y, acc2Z float64
	baroAlt, magYaw     float64
	gpsN, gpsE, gpsD    float64
	battV, battA        float64

	lastReading sensors.Reading

	inboxMu sync.Mutex
	inbox   []mavlink.Message
	outbox  []mavlink.Message
}

// New assembles a firmware instance. All controller variables are registered
// and assigned to MPU regions; an unassigned variable is an assembly error.
func New(cfg Config) (*Firmware, error) {
	if cfg.Vehicle.Mass == 0 {
		cfg.Vehicle = sim.IRISPlusParams()
	}
	if cfg.Sensors == (sensors.Config{}) {
		cfg.Sensors = sensors.DefaultConfig()
	}
	if cfg.LoopHz <= 0 {
		cfg.LoopHz = 400
	}
	if cfg.LogHz <= 0 {
		cfg.LogHz = 16
	}

	var opts []sim.Option
	if cfg.Wind != nil {
		opts = append(opts, sim.WithWind(cfg.Wind))
	}
	if cfg.World != nil {
		opts = append(opts, sim.WithWorld(cfg.World))
	}
	quad, err := sim.NewQuad(cfg.Vehicle, opts...)
	if err != nil {
		return nil, err
	}

	dt := 1 / cfg.LoopHz
	hover := cfg.Vehicle.HoverThrottle()
	f := &Firmware{
		cfg:      cfg,
		quad:     quad,
		suite:    sensors.NewSuite(cfg.Sensors),
		est:      ekf.New(ekf.DefaultConfig()),
		sins:     control.NewSINS(),
		att:      control.NewAttitudeController(control.DefaultAttitudeConfig(dt)),
		pos:      control.NewPositionController(control.DefaultPositionConfig(dt, hover)),
		params:   control.NewParamStore(),
		mission:  NewMission(nil),
		varSet:   vars.NewSet(),
		mode:     ModeStabilize,
		dt:       dt,
		logEvery: int(math.Max(1, math.Round(cfg.LoopHz/cfg.LogHz))),
	}
	if err := f.registerVars(); err != nil {
		return nil, fmt.Errorf("firmware: register vars: %w", err)
	}
	f.memmap = NewMemoryMap(f.varSet)
	if err := f.assignRegions(); err != nil {
		return nil, fmt.Errorf("firmware: assign regions: %w", err)
	}
	if err := f.bindParams(); err != nil {
		return nil, fmt.Errorf("firmware: bind params: %w", err)
	}
	return f, nil
}

// registerVars exposes every state variable the ESVL can draw from.
func (f *Firmware) registerVars() error {
	if err := f.att.RegisterVars(f.varSet); err != nil {
		return err
	}
	if err := f.pos.RegisterVars(f.varSet); err != nil {
		return err
	}
	if err := f.mixer.RegisterVars(f.varSet); err != nil {
		return err
	}
	if err := f.est.RegisterVars(f.varSet); err != nil {
		return err
	}
	if err := f.sins.RegisterVars(f.varSet, "SINS"); err != nil {
		return err
	}
	handoff := []struct {
		name string
		ptr  *float64
	}{
		{"CMD.Roll", &f.cmdRoll},
		{"CMD.Pitch", &f.cmdPitch},
		{"CMD.Thr", &f.cmdThr},
	}
	for _, v := range handoff {
		if err := f.varSet.Register(v.name, vars.KindIntermediate, v.ptr); err != nil {
			return err
		}
	}
	sensorVars := []struct {
		name string
		ptr  *float64
	}{
		{"IMU.GyrX", &f.gyrX}, {"IMU.GyrY", &f.gyrY}, {"IMU.GyrZ", &f.gyrZ},
		{"IMU.AccX", &f.accX}, {"IMU.AccY", &f.accY}, {"IMU.AccZ", &f.accZ},
		{"IMU2.GyrX", &f.gyr2X}, {"IMU2.GyrY", &f.gyr2Y}, {"IMU2.GyrZ", &f.gyr2Z},
		{"IMU2.AccX", &f.acc2X}, {"IMU2.AccY", &f.acc2Y}, {"IMU2.AccZ", &f.acc2Z},
		{"BARO.Alt", &f.baroAlt}, {"MAG.Yaw", &f.magYaw},
		{"GPS.PN", &f.gpsN}, {"GPS.PE", &f.gpsE}, {"GPS.PD", &f.gpsD},
		{"CURR.Volt", &f.battV}, {"CURR.Curr", &f.battA},
	}
	for _, v := range sensorVars {
		if err := f.varSet.Register(v.name, vars.KindSensor, v.ptr); err != nil {
			return err
		}
	}
	return nil
}

// regionByPrefix maps variable-name prefixes to MPU regions, realizing the
// paper's layout where each process's variables share one isolated region.
var regionByPrefix = []struct {
	prefix string
	region string
}{
	{"CMD.", RegionStabilizer},
	{"PIDR.", RegionStabilizer},
	{"PIDP.", RegionStabilizer},
	{"PIDY.", RegionStabilizer},
	{"ANGR.", RegionStabilizer},
	{"ANGP.", RegionStabilizer},
	{"ANGY.", RegionStabilizer},
	{"ATT.", RegionStabilizer},
	{"RATE.", RegionStabilizer},
	{"NTUN.", RegionNavigator},
	{"CTUN.", RegionNavigator},
	{"SQP.", RegionNavigator},
	{"SQZ.", RegionNavigator},
	{"PIDVX.", RegionNavigator},
	{"PIDVY.", RegionNavigator},
	{"PIDVZ.", RegionNavigator},
	{"EKF1.", RegionEstimator},
	{"NKF4.", RegionEstimator},
	{"SINS.", RegionEstimator},
	{"IMU.", RegionDrivers},
	{"IMU2.", RegionDrivers},
	{"BARO.", RegionDrivers},
	{"MAG.", RegionDrivers},
	{"GPS.", RegionDrivers},
	{"CURR.", RegionDrivers},
	{"RCOU.", RegionActuators},
}

func (f *Firmware) assignRegions() error {
	for _, name := range f.varSet.Names() {
		region := ""
		for _, m := range regionByPrefix {
			if len(name) >= len(m.prefix) && name[:len(m.prefix)] == m.prefix {
				region = m.region
				break
			}
		}
		if region == "" {
			return fmt.Errorf("firmware: variable %q has no region mapping", name)
		}
		if err := f.memmap.Assign(name, region); err != nil {
			return err
		}
	}
	if missing := f.memmap.UnassignedVars(); len(missing) > 0 {
		return fmt.Errorf("firmware: unassigned variables: %v", missing)
	}
	return nil
}

// bindParams wires the GCS-visible parameter table to live controller fields
// so PARAM_SET writes take effect immediately.
func (f *Firmware) bindParams() error {
	bindings := map[string]*float64{
		"ATC_RAT_RLL_P":    &f.att.RateRoll.KP,
		"ATC_RAT_RLL_I":    &f.att.RateRoll.KI,
		"ATC_RAT_RLL_D":    &f.att.RateRoll.KD,
		"ATC_RAT_RLL_FF":   &f.att.RateRoll.KFF,
		"ATC_RAT_RLL_IMAX": &f.att.RateRoll.IMax,
		"ATC_RAT_PIT_IMAX": &f.att.RatePitch.IMax,
		"ATC_RAT_PIT_P":    &f.att.RatePitch.KP,
		"ATC_RAT_PIT_I":    &f.att.RatePitch.KI,
		"ATC_RAT_PIT_D":    &f.att.RatePitch.KD,
		"ATC_RAT_YAW_P":    &f.att.RateYaw.KP,
		"ATC_RAT_YAW_I":    &f.att.RateYaw.KI,
		"ATC_ANG_RLL_P":    &f.att.AngleRoll.P,
		"ATC_ANG_PIT_P":    &f.att.AnglePitch.P,
		"ATC_ANG_YAW_P":    &f.att.AngleYaw.P,
		"PSC_POSXY_P":      &f.pos.PosXY.P,
		"PSC_VELXY_P":      &f.pos.VelX.KP,
		"PSC_VELXY_I":      &f.pos.VelX.KI,
		"PSC_VELXY_D":      &f.pos.VelX.KD,
		"PSC_POSZ_P":       &f.pos.PosZ.P,
		"PSC_VELZ_P":       &f.pos.VelZ.KP,
		"SINS_VEL_GAIN":    &f.sins.VelGain,
		"SINS_POS_GAIN":    &f.sins.PosGain,
	}
	for name, ptr := range bindings {
		if err := f.params.Bind(name, ptr); err != nil {
			return err
		}
	}
	return nil
}

// --- accessors ---

// Quad returns the simulated plant.
func (f *Firmware) Quad() *sim.Quad { return f.quad }

// Sensors returns the sensor suite (fault-injection hooks live there).
func (f *Firmware) Sensors() *sensors.Suite { return f.suite }

// Vars returns the full variable set (the instrumentation view).
func (f *Firmware) Vars() *vars.Set { return f.varSet }

// Memory returns the MPU memory map.
func (f *Firmware) Memory() *MemoryMap { return f.memmap }

// Params returns the parameter table.
func (f *Firmware) Params() *control.ParamStore { return f.params }

// EKF returns the onboard estimator.
func (f *Firmware) EKF() *ekf.EKF { return f.est }

// Attitude returns the attitude controller.
func (f *Firmware) Attitude() *control.AttitudeController { return f.att }

// Position returns the position controller.
func (f *Firmware) Position() *control.PositionController { return f.pos }

// Mission returns the loaded mission.
func (f *Firmware) Mission() *Mission { return f.mission }

// Mode returns the active flight mode.
func (f *Firmware) Mode() Mode { return f.mode }

// Armed reports whether motors are live.
func (f *Firmware) Armed() bool { return f.armed }

// Time returns the simulation time in seconds.
func (f *Firmware) Time() float64 { return f.quad.Time() }

// DT returns the main loop period.
func (f *Firmware) DT() float64 { return f.dt }

// LastReading returns the most recent sensor snapshot.
func (f *Firmware) LastReading() sensors.Reading { return f.lastReading }

// --- commands ---

// Arm enables the motors. A crashed vehicle cannot arm.
func (f *Firmware) Arm() error {
	if crashed, reason := f.quad.Crashed(); crashed {
		return fmt.Errorf("firmware: cannot arm: %s", reason)
	}
	f.armed = true
	f.home = f.quad.State().Pos
	return nil
}

// Disarm stops the motors.
func (f *Firmware) Disarm() { f.armed = false }

// SetMode switches the flight mode.
func (f *Firmware) SetMode(m Mode) {
	f.mode = m
	if m == ModeLoiter || m == ModeGuided {
		f.guidedTgt = f.quad.State().Pos
	}
}

// Takeoff arms and climbs to the given altitude in GUIDED mode.
func (f *Firmware) Takeoff(altitude float64) error {
	if err := f.Arm(); err != nil {
		return err
	}
	st := f.quad.State().Pos
	f.guidedTgt = mathx.V3(st.X, st.Y, -altitude)
	f.mode = ModeGuided
	return nil
}

// SetGuidedTarget points GUIDED mode at a position.
func (f *Firmware) SetGuidedTarget(p mathx.Vec3) { f.guidedTgt = p }

// LoadMission installs a mission (replacing any previous one).
func (f *Firmware) LoadMission(m *Mission) { f.mission = m }

// StartMission switches to AUTO from the current position.
func (f *Firmware) StartMission() error {
	if f.mission.Len() == 0 {
		return fmt.Errorf("firmware: no mission loaded")
	}
	if !f.armed {
		if err := f.Arm(); err != nil {
			return err
		}
	}
	f.mission.Reset()
	f.mode = ModeAuto
	return nil
}

// Reset restores the whole stack to rest at pos with a fresh estimator and
// clean controllers — the RL episode reset ("landing, disarming the vehicle,
// and resetting it back into its initial position").
func (f *Firmware) Reset(pos mathx.Vec3) {
	f.quad.Reset(pos)
	f.est.Reset(pos, 0)
	f.sins.Reset(pos, mathx.Vec3{})
	f.att.Reset()
	f.pos.Reset()
	f.mission.Reset()
	f.armed = false
	f.mode = ModeStabilize
	f.desYaw = 0
	f.tick = 0
	f.guidedTgt = pos
}

// Step runs one 400 Hz main-loop iteration: drain GCS traffic, sample
// sensors, run estimation, run the control cascade for the active mode, mix
// motors, advance physics, and log.
func (f *Firmware) Step() {
	f.drainInbox()

	// Sense.
	r := f.suite.Sample(f.quad.Time(), f.quad.State(), f.quad.LastAccel(), f.quad.Battery())
	f.lastReading = r
	f.copySensorVars(r)

	// Estimate.
	f.est.Predict(r.IMU.Gyro, r.IMU.Accel, f.dt)
	if f.tick%f.logEvery == 0 {
		// Aiding at the 16 Hz logging cadence; gravity fusion is rate-
		// limited so it trims gyro drift without fighting maneuvers.
		f.est.FuseGravity(r.IMU.Accel)
		f.est.FuseBaro(r.BaroAlt)
		f.est.FuseMag(r.MagYaw)
	}
	estRoll, estPitch, estYaw := f.est.Attitude()
	f.sins.Predict(r.IMU.Accel, mathx.QuatFromEuler(estRoll, estPitch, estYaw), f.dt)
	if r.GPSFresh {
		f.est.FuseGPS(r.GPS.Pos, r.GPS.Vel)
		f.sins.CorrectPosition(r.GPS.Pos)
		f.sins.CorrectVelocity(r.GPS.Vel)
	}

	// Guide + control.
	var cmd [4]float64
	if f.armed {
		cmd = f.runControllers()
	}

	// Actuate physics.
	f.quad.Step(cmd, f.dt)

	// Mission bookkeeping.
	if f.mode == ModeAuto {
		f.mission.Update(f.est.Position(), f.quad.Time())
	}
	f.checkFailsafes()

	// Log.
	if f.cfg.LogWriter != nil && f.tick%f.logEvery == 0 {
		f.writeLogs()
	}
	f.tick++
}

// StepN runs n loop iterations.
func (f *Firmware) StepN(n int) {
	for i := 0; i < n; i++ {
		f.Step()
	}
}

// RunFor advances the firmware by the given number of simulated seconds.
func (f *Firmware) RunFor(seconds float64) {
	f.StepN(int(seconds / f.dt))
}

func (f *Firmware) copySensorVars(r sensors.Reading) {
	f.gyrX, f.gyrY, f.gyrZ = r.IMU.Gyro.X, r.IMU.Gyro.Y, r.IMU.Gyro.Z
	f.accX, f.accY, f.accZ = r.IMU.Accel.X, r.IMU.Accel.Y, r.IMU.Accel.Z
	f.gyr2X, f.gyr2Y, f.gyr2Z = r.IMU2.Gyro.X, r.IMU2.Gyro.Y, r.IMU2.Gyro.Z
	f.acc2X, f.acc2Y, f.acc2Z = r.IMU2.Accel.X, r.IMU2.Accel.Y, r.IMU2.Accel.Z
	f.baroAlt, f.magYaw = r.BaroAlt, r.MagYaw
	f.gpsN, f.gpsE, f.gpsD = r.GPS.Pos.X, r.GPS.Pos.Y, r.GPS.Pos.Z
	f.battV, f.battA = r.BatteryV, r.CurrentA
}

// runControllers executes the guidance + cascade for the active mode and
// returns motor commands.
func (f *Firmware) runControllers() [4]float64 {
	estPos := f.est.Position()
	estVel := f.est.Velocity()
	estRoll, estPitch, estYaw := f.est.Attitude()
	gyro := f.lastReading.IMU.Gyro

	target := estPos
	switch f.mode {
	case ModeAuto:
		target = f.mission.Target()
		// Face the direction of travel once meaningfully away.
		d := target.Sub(estPos)
		if d.XY() > 1.0 {
			f.desYaw = math.Atan2(d.Y, d.X)
		}
	case ModeGuided, ModeLoiter:
		target = f.guidedTgt
	case ModeRTL:
		target = mathx.V3(f.home.X, f.home.Y, f.guidedTgt.Z)
		if estPos.Sub(target).XY() < 1.0 {
			f.mode = ModeLand
		}
	case ModeLand:
		// Descend ~1 m/s by chasing a point 1 m below the current
		// estimate; touchdown then stays below the crash threshold.
		target = mathx.V3(estPos.X, estPos.Y, estPos.Z+1.0)
		if f.quad.State().Altitude() < 0.1 {
			f.Disarm()
		}
	case ModeStabilize:
		// Attitude-only: hold level at current throttle.
		f.cmdRoll, f.cmdPitch, f.cmdThr = 0, 0, f.pos.HoverThrottle
		if f.attackHook != nil {
			f.attackHook()
		}
		tr, tp, ty := f.att.Update(f.cmdRoll, f.cmdPitch, f.desYaw, estRoll, estPitch, estYaw, gyro)
		return f.mixer.Mix(f.cmdThr, tr, tp, ty)
	}

	f.cmdRoll, f.cmdPitch, f.cmdThr = f.pos.Update(target, estPos, estVel, estYaw)
	if f.attackHook != nil {
		f.attackHook()
	}
	tr, tp, ty := f.att.Update(f.cmdRoll, f.cmdPitch, f.desYaw, estRoll, estPitch, estYaw, gyro)
	return f.mixer.Mix(f.cmdThr, tr, tp, ty)
}

// SetAttackHook installs (or clears, with nil) the mid-pipeline callback
// used by the attack layer.
func (f *Firmware) SetAttackHook(hook func()) { f.attackHook = hook }

func (f *Firmware) checkFailsafes() {
	if !f.armed {
		return
	}
	enabled, err := f.params.Get("FS_BATT_ENABLE")
	if err != nil || enabled == 0 {
		return
	}
	lowV, err := f.params.Get("BATT_LOW_VOLT")
	if err != nil {
		return
	}
	if f.quad.Battery().Voltage < lowV && f.mode != ModeRTL && f.mode != ModeLand {
		f.mode = ModeLand
	}
}
