package firmware

import (
	"math"
	"testing"

	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/mavlink"
)

func TestGCSLandAndRTLCommands(t *testing.T) {
	f := newTestFirmware(t, Config{})
	if err := f.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	f.RunFor(8)
	// Fly away first: RTL from home would hand off to LAND immediately.
	f.guidedTgt = mathx.V3(20, 0, -10)
	f.RunFor(10)

	f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdRTL})
	f.Step()
	if ack := f.DrainOutbox()[0].(*mavlink.CommandAck); ack.Result != 0 {
		t.Errorf("RTL rejected: %+v", ack)
	}
	if f.mode != modeRTL {
		t.Errorf("mode = %v, want RTL", f.mode)
	}

	f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdLand})
	f.Step()
	if ack := f.DrainOutbox()[0].(*mavlink.CommandAck); ack.Result != 0 {
		t.Errorf("LAND rejected: %+v", ack)
	}
	if f.mode != modeLand {
		t.Errorf("mode = %v, want LAND", f.mode)
	}
}

func TestGCSSetModeAndArmDisarm(t *testing.T) {
	f := newTestFirmware(t, Config{})
	f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdArmDisarm,
		Params: [7]float64{1}})
	f.Step()
	if !f.armed {
		t.Error("arm command did not arm")
	}
	f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdSetMode,
		Params: [7]float64{float64(modeLoiter)}})
	f.Step()
	if f.mode != modeLoiter {
		t.Errorf("mode = %v, want LOITER", f.mode)
	}
	f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdArmDisarm,
		Params: [7]float64{0}})
	f.Step()
	if f.armed {
		t.Error("disarm command did not disarm")
	}
	f.DrainOutbox()

	// CmdMissionGo without a mission fails.
	f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdMissionGo})
	f.Step()
	if ack := f.DrainOutbox()[0].(*mavlink.CommandAck); ack.Result == 0 {
		t.Error("mission start without mission acknowledged OK")
	}
}

func TestGCSArmWhileCrashedFails(t *testing.T) {
	f := newTestFirmware(t, Config{})
	f.crashForTest()
	f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdArmDisarm,
		Params: [7]float64{1}})
	f.Step()
	if ack := f.DrainOutbox()[0].(*mavlink.CommandAck); ack.Result == 0 {
		t.Error("arming a crashed vehicle acknowledged OK")
	}
	// Takeoff fails too.
	f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdTakeoff,
		Params: [7]float64{6: 10}})
	f.Step()
	if ack := f.DrainOutbox()[0].(*mavlink.CommandAck); ack.Result == 0 {
		t.Error("takeoff on a crashed vehicle acknowledged OK")
	}
}

func TestTelemetrySnapshot(t *testing.T) {
	f := newTestFirmware(t, Config{})
	if err := f.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	f.RunFor(8)
	msgs := f.TelemetrySnapshot()
	if len(msgs) != 2 {
		t.Fatalf("telemetry = %d messages", len(msgs))
	}
	att, ok := msgs[0].(*mavlink.Attitude)
	if !ok {
		t.Fatalf("first message %T", msgs[0])
	}
	if att.TimeS <= 0 {
		t.Error("telemetry time not set")
	}
	pos, ok := msgs[1].(*mavlink.GlobalPosition)
	if !ok {
		t.Fatalf("second message %T", msgs[1])
	}
	if pos.Z > -5 {
		t.Errorf("telemetry altitude z = %v, want airborne", pos.Z)
	}
}

func TestFirmwareAccessors(t *testing.T) {
	f := newTestFirmware(t, Config{})
	if f.EKF() == nil {
		t.Fatal("nil subsystem accessor")
	}
	if f.DT() != 1.0/400 {
		t.Errorf("DT = %v", f.DT())
	}
	f.Step()
	if f.LastReading().Time < 0 {
		t.Error("LastReading not populated")
	}
}

// crashForTest forces the crashed state through the public physics path.
func (f *Firmware) crashForTest() {
	// Climb at full throttle, then fall with the motors off to force a
	// hard impact.
	for i := 0; i < 3*400; i++ {
		f.quad.Step([4]float64{1, 1, 1, 1}, 1.0/400)
	}
	for i := 0; i < 10*400; i++ {
		f.quad.Step([4]float64{}, 1.0/400)
		if crashed, _ := f.quad.Crashed(); crashed {
			return
		}
	}
}

// flyingFirmware returns a firmware hovering at 10 m in GUIDED mode.
func flyingFirmware(t *testing.T) *Firmware {
	t.Helper()
	f := newTestFirmware(t, Config{})
	if err := f.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	f.RunFor(5)
	return f
}

// TestGCSParamSetNonFiniteRejected: NaN fails both range comparisons, so
// a NaN PARAM_SET must be refused by name rather than written into the
// gain, where it would crash the vehicle within a second.
func TestGCSParamSetNonFiniteRejected(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := flyingFirmware(t)
		kp := f.att.RateRoll.KP
		f.Enqueue(&mavlink.ParamSet{Name: "ATC_RAT_RLL_P", Value: v})
		f.Step()
		pv := f.DrainOutbox()[0].(*mavlink.ParamValue)
		if pv.OK || pv.Value != kp {
			t.Errorf("PARAM_SET ATC_RAT_RLL_P %v: reply %+v, want OK:false with value %v", v, pv, kp)
		}
		if got := f.att.RateRoll.KP; got != kp {
			t.Errorf("PARAM_SET ATC_RAT_RLL_P %v: KP = %v, want %v", v, got, kp)
		}
		f.RunFor(1)
		if crashed, reason := f.Quad().Crashed(); crashed {
			t.Errorf("PARAM_SET ATC_RAT_RLL_P %v: crashed: %s", v, reason)
		}
	}
	// A name outside the table fails as unknown, even one ArduCopter has.
	f := newTestFirmware(t, Config{})
	f.Enqueue(&mavlink.ParamSet{Name: "WPNAV_SPEED", Value: 500})
	f.Step()
	if pv := f.DrainOutbox()[0].(*mavlink.ParamValue); pv.OK {
		t.Errorf("PARAM_SET of a name outside the table acknowledged OK: %+v", pv)
	}
}

// TestGCSArmDisarmNonFinite: NaN fails the arm comparison, so a NaN
// ARM_DISARM must be refused rather than taken as a disarm that drops a
// flying vehicle.
func TestGCSArmDisarmNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := flyingFirmware(t)
		f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdArmDisarm, Params: [7]float64{v}})
		f.Step()
		if ack := f.DrainOutbox()[0].(*mavlink.CommandAck); ack.Result != 4 {
			t.Errorf("ARM_DISARM %v: result %d, want 4", v, ack.Result)
		}
		if !f.armed {
			t.Errorf("ARM_DISARM %v disarmed a flying vehicle", v)
		}
		f.RunFor(1)
		if crashed, reason := f.Quad().Crashed(); crashed {
			t.Errorf("ARM_DISARM %v: crashed: %s", v, reason)
		}
	}
}

// TestGCSSetModeOutOfRange: a SET_MODE number that truncates to none of
// the six modes is refused and the mode kept.
func TestGCSSetModeOutOfRange(t *testing.T) {
	f := flyingFirmware(t)
	for _, m := range []float64{99, 7, 0, 0.5, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdSetMode, Params: [7]float64{m}})
		f.Step()
		if ack := f.DrainOutbox()[0].(*mavlink.CommandAck); ack.Result != 4 {
			t.Errorf("SET_MODE %v: result %d, want 4", m, ack.Result)
		}
		if f.mode != modeGuided {
			t.Errorf("SET_MODE %v: mode = %v, want GUIDED", m, f.mode)
		}
	}
	f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdSetMode, Params: [7]float64{float64(modeLand)}})
	f.Step()
	if ack := f.DrainOutbox()[0].(*mavlink.CommandAck); ack.Result != 0 || f.mode != modeLand {
		t.Errorf("SET_MODE LAND: result %d, mode %v", ack.Result, f.mode)
	}
}

// TestGCSTakeoffNonFinite: a TAKEOFF to a non-finite altitude is refused
// before the motors arm.
func TestGCSTakeoffNonFinite(t *testing.T) {
	for _, alt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := newTestFirmware(t, Config{})
		f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdTakeoff, Params: [7]float64{6: alt}})
		f.Step()
		if ack := f.DrainOutbox()[0].(*mavlink.CommandAck); ack.Result != 4 {
			t.Errorf("TAKEOFF %v: result %d, want 4", alt, ack.Result)
		}
		if f.armed || f.mode != modeStabilize {
			t.Errorf("TAKEOFF %v: armed = %v, mode = %v", alt, f.armed, f.mode)
		}
		f.RunFor(1)
		if crashed, reason := f.Quad().Crashed(); crashed {
			t.Errorf("TAKEOFF %v: crashed: %s", alt, reason)
		}
	}
}

// TestGCSMissionUploadNonFinite: an upload with any non-finite coordinate
// or hold time is refused whole and the loaded mission kept.
func TestGCSMissionUploadNonFinite(t *testing.T) {
	f := newTestFirmware(t, Config{})
	loaded := LineMission(30, 10)
	f.LoadMission(loaded)
	for field := 0; field < 4; field++ {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			vals := [4]float64{30, 0, -10, 1}
			vals[field] = bad
			f.Enqueue(&mavlink.MissionItem{Seq: 0, X: 0, Y: 0, Z: -10})
			f.Enqueue(&mavlink.MissionItem{Seq: 1, X: vals[0], Y: vals[1], Z: vals[2], Hold: vals[3]})
			f.Step()
			ack := f.DrainOutbox()[0].(*mavlink.MissionAck)
			if ack.OK {
				t.Errorf("upload with %v in field %d acknowledged OK", bad, field)
			}
			if f.mission != loaded {
				t.Fatalf("upload with %v in field %d replaced the mission", bad, field)
			}
		}
	}
}
