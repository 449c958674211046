package firmware

import (
	"testing"

	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/mavlink"
	"github.com/ares-cps/ares/internal/sim"
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
	if f.Mode() != modeRTL {
		t.Errorf("mode = %v, want RTL", f.Mode())
	}

	f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdLand})
	f.Step()
	if ack := f.DrainOutbox()[0].(*mavlink.CommandAck); ack.Result != 0 {
		t.Errorf("LAND rejected: %+v", ack)
	}
	if f.Mode() != modeLand {
		t.Errorf("mode = %v, want LAND", f.Mode())
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
	if f.Mode() != modeLoiter {
		t.Errorf("mode = %v, want LOITER", f.Mode())
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
	f.Quad().SetState(f.Quad().State()) // clean
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
	// Drop from altitude, at rest with motors off, to force a hard impact.
	pos := f.quad.State().Pos
	f.quad.SetState(sim.State{Pos: mathx.V3(pos.X, pos.Y, -30), Att: mathx.QuatIdentity()})
	for i := 0; i < 5*400; i++ {
		f.quad.Step([4]float64{}, 1.0/400)
		if crashed, _ := f.quad.Crashed(); crashed {
			return
		}
	}
}
