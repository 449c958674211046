package firmware

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"github.com/ares-cps/ares/internal/dataflash"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/mavlink"
	"github.com/ares-cps/ares/internal/sensors"
)

func newTestFirmware(t *testing.T, cfg Config) *Firmware {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFirmwareAssembles(t *testing.T) {
	f := newTestFirmware(t, Config{})
	if f.Vars().Len() < 80 {
		t.Errorf("variable set has %d entries, want a rich set (≥80)", f.Vars().Len())
	}
	if missing := f.Memory().UnassignedVars(); len(missing) != 0 {
		t.Errorf("unassigned variables: %v", missing)
	}
	// The stabilizer region holds the PID intermediates, per the paper.
	if r, _ := f.Memory().RegionOf("PIDR.INTEG"); r != RegionStabilizer {
		t.Errorf("PIDR.INTEG in region %q, want %q", r, RegionStabilizer)
	}
}

func TestFirmwareTakeoffAndHover(t *testing.T) {
	f := newTestFirmware(t, Config{})
	if err := f.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	f.RunFor(12)
	if crashed, reason := f.Quad().Crashed(); crashed {
		t.Fatalf("crashed during takeoff: %s", reason)
	}
	if alt := -f.Quad().StateRef().Pos.Z; math.Abs(alt-10) > 1.0 {
		t.Errorf("altitude after takeoff = %v, want ~10", alt)
	}
	if f.mode != modeGuided || !f.armed {
		t.Errorf("mode = %v, armed = %v", f.mode, f.armed)
	}
}

func TestFirmwareFliesMission(t *testing.T) {
	f := newTestFirmware(t, Config{})
	if err := f.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	f.RunFor(10)
	f.LoadMission(SquareMission(25, 10))
	if err := f.StartMission(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90*400 && !f.Mission().Complete(); i++ {
		f.Step()
	}
	if crashed, reason := f.Quad().Crashed(); crashed {
		t.Fatalf("crashed during mission: %s", reason)
	}
	if !f.Mission().Complete() {
		t.Fatalf("mission incomplete after 90 s; at waypoint %d, pos %v",
			f.mission.current, f.Quad().State().Pos)
	}
}

func TestFirmwareMissionRequiresWaypoints(t *testing.T) {
	f := newTestFirmware(t, Config{})
	if err := f.StartMission(); err == nil {
		t.Error("empty mission started")
	}
}

func TestFirmwareLanding(t *testing.T) {
	f := newTestFirmware(t, Config{})
	if err := f.Takeoff(8); err != nil {
		t.Fatal(err)
	}
	f.RunFor(10)
	f.SetMode(modeLand)
	f.RunFor(25)
	if f.armed {
		t.Error("still armed after landing")
	}
	if alt := -f.Quad().StateRef().Pos.Z; alt > 0.5 {
		t.Errorf("altitude after landing = %v", alt)
	}
	if crashed, reason := f.Quad().Crashed(); crashed {
		t.Errorf("landing crashed: %s", reason)
	}
}

func TestFirmwareRTLReturnsHome(t *testing.T) {
	f := newTestFirmware(t, Config{})
	if err := f.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	f.RunFor(8)
	f.guidedTgt = mathx.V3(20, 0, -10)
	f.RunFor(15)
	if f.Quad().State().Pos.XY() < 15 {
		t.Fatalf("vehicle did not travel out: %v", f.Quad().State().Pos)
	}
	f.guidedTgt = f.Quad().State().Pos // RTL keeps guided altitude
	f.SetMode(modeRTL)
	f.RunFor(40)
	pos := f.Quad().State().Pos
	// RTL flies home then hands off to LAND, which drifts slightly while
	// descending; "home" therefore means within a few meters.
	if pos.XY() > 4 {
		t.Errorf("RTL did not return home: %v", pos)
	}
	if crashed, reason := f.Quad().Crashed(); crashed {
		t.Errorf("RTL crashed: %s", reason)
	}
}

func TestFirmwareParamSetViaGCS(t *testing.T) {
	f := newTestFirmware(t, Config{})
	f.Enqueue(&mavlink.ParamSet{Name: "ATC_RAT_RLL_P", Value: 0.2})
	f.Step()
	replies := f.DrainOutbox()
	if len(replies) != 1 {
		t.Fatalf("replies = %d, want 1", len(replies))
	}
	pv, ok := replies[0].(*mavlink.ParamValue)
	if !ok || !pv.OK || pv.Value != 0.2 {
		t.Errorf("reply = %+v", replies[0])
	}
	// The live controller gain changed.
	if f.att.RateRoll.KP != 0.2 {
		t.Errorf("live KP = %v, want 0.2", f.att.RateRoll.KP)
	}
	// Out-of-range set is rejected but still replied to.
	f.Enqueue(&mavlink.ParamSet{Name: "ATC_RAT_RLL_P", Value: 10})
	f.Step()
	replies = f.DrainOutbox()
	if len(replies) != 1 {
		t.Fatalf("replies = %d", len(replies))
	}
	if pv := replies[0].(*mavlink.ParamValue); pv.OK {
		t.Error("out-of-range PARAM_SET acknowledged OK")
	}
	if f.att.RateRoll.KP != 0.2 {
		t.Error("rejected set still changed the gain")
	}
}

// TestFirmwareParamBindings sets every bound parameter through the
// parameter table: an in-range value must reach exactly its live controller
// or SINS field, and an out-of-range one must change nothing.
func TestFirmwareParamBindings(t *testing.T) {
	fields := []struct {
		name string
		get  func(f *Firmware) float64
	}{
		{"ATC_RAT_RLL_P", func(f *Firmware) float64 { return f.att.RateRoll.KP }},
		{"ATC_RAT_RLL_I", func(f *Firmware) float64 { return f.att.RateRoll.KI }},
		{"ATC_RAT_RLL_D", func(f *Firmware) float64 { return f.att.RateRoll.KD }},
		{"ATC_RAT_RLL_FF", func(f *Firmware) float64 { return f.att.RateRoll.KFF }},
		{"ATC_RAT_RLL_IMAX", func(f *Firmware) float64 { return f.att.RateRoll.IMax }},
		{"ATC_RAT_RLL_FLTT", func(f *Firmware) float64 { return f.att.RateRoll.FilterHz }},
		{"ATC_RAT_PIT_P", func(f *Firmware) float64 { return f.att.RatePitch.KP }},
		{"ATC_RAT_PIT_I", func(f *Firmware) float64 { return f.att.RatePitch.KI }},
		{"ATC_RAT_PIT_D", func(f *Firmware) float64 { return f.att.RatePitch.KD }},
		{"ATC_RAT_PIT_FF", func(f *Firmware) float64 { return f.att.RatePitch.KFF }},
		{"ATC_RAT_PIT_IMAX", func(f *Firmware) float64 { return f.att.RatePitch.IMax }},
		{"ATC_RAT_PIT_FLTT", func(f *Firmware) float64 { return f.att.RatePitch.FilterHz }},
		{"ATC_RAT_YAW_P", func(f *Firmware) float64 { return f.att.RateYaw.KP }},
		{"ATC_RAT_YAW_I", func(f *Firmware) float64 { return f.att.RateYaw.KI }},
		{"ATC_RAT_YAW_D", func(f *Firmware) float64 { return f.att.RateYaw.KD }},
		{"ATC_RAT_YAW_FLTT", func(f *Firmware) float64 { return f.att.RateYaw.FilterHz }},
		{"ATC_ANG_RLL_P", func(f *Firmware) float64 { return f.att.AngleRoll.P }},
		{"ATC_ANG_PIT_P", func(f *Firmware) float64 { return f.att.AnglePitch.P }},
		{"ATC_ANG_YAW_P", func(f *Firmware) float64 { return f.att.AngleYaw.P }},
		{"PSC_POSXY_P", func(f *Firmware) float64 { return f.pos.PosXY.P }},
		{"PSC_VELXY_P", func(f *Firmware) float64 { return f.pos.VelX.KP }},
		{"PSC_VELXY_I", func(f *Firmware) float64 { return f.pos.VelX.KI }},
		{"PSC_VELXY_D", func(f *Firmware) float64 { return f.pos.VelX.KD }},
		{"PSC_POSZ_P", func(f *Firmware) float64 { return f.pos.PosZ.P }},
		{"PSC_VELZ_P", func(f *Firmware) float64 { return f.pos.VelZ.KP }},
		{"SINS_VEL_GAIN", func(f *Firmware) float64 { return f.sins.VelGain }},
		{"SINS_POS_GAIN", func(f *Firmware) float64 { return f.sins.PosGain }},
		{"FS_BATT_ENABLE", func(f *Firmware) float64 { return f.fsBattEnable }},
		{"BATT_LOW_VOLT", func(f *Firmware) float64 { return f.battLowVolt }},
	}
	f := newTestFirmware(t, Config{})
	bound := f.paramBindings()
	names := f.Params().Names()
	if len(bound) != len(fields) || len(names) != len(fields) {
		t.Errorf("%d bound parameters, %d in the table, test covers %d", len(bound), len(names), len(fields))
	}
	for _, fl := range fields {
		if bound[fl.name] == nil {
			t.Errorf("table entry %s is not a bound parameter", fl.name)
		}
	}
	snapshot := func() []float64 {
		out := make([]float64, len(fields))
		for i, fl := range fields {
			out[i] = fl.get(f)
		}
		return out
	}
	for _, fl := range fields {
		name := fl.name
		t.Run(name, func(t *testing.T) {
			def, ok := f.Params().Lookup(name)
			if !ok {
				t.Fatalf("%s not in the parameter table", name)
			}
			if cur, _ := f.Params().Get(name); cur != def.Default {
				t.Errorf("%s flies %v unset, want its default %v", name, cur, def.Default)
			}
			v := (def.Min + def.Max) / 2
			if v == def.Default {
				v = def.Min + (def.Max-def.Min)/4
			}
			before := snapshot()
			if err := f.Params().Set(name, v); err != nil {
				t.Fatalf("in-range Set(%v): %v", v, err)
			}
			for i, other := range fields {
				want := before[i]
				if other.name == name {
					want = v
				}
				if got := other.get(f); got != want {
					t.Errorf("after Set(%s, %v): %s = %v, want %v", name, v, other.name, got, want)
				}
			}
			before = snapshot()
			if err := f.Params().Set(name, def.Max+1); err == nil {
				t.Errorf("out-of-range Set(%v) accepted", def.Max+1)
			}
			for i, other := range fields {
				if got := other.get(f); got != before[i] {
					t.Errorf("rejected Set(%s) changed %s to %v", name, other.name, got)
				}
			}
		})
	}
}

func TestFirmwareCommandsViaGCS(t *testing.T) {
	f := newTestFirmware(t, Config{})
	f.Enqueue(&mavlink.CommandLong{Command: mavlink.CmdTakeoff,
		Params: [7]float64{0, 0, 0, 0, 0, 0, 12}})
	f.Step()
	replies := f.DrainOutbox()
	if len(replies) != 1 {
		t.Fatalf("replies = %d", len(replies))
	}
	ack := replies[0].(*mavlink.CommandAck)
	if ack.Result != 0 {
		t.Errorf("takeoff rejected: %+v", ack)
	}
	if !f.armed || f.mode != modeGuided {
		t.Errorf("takeoff did not arm+guide: armed=%v mode=%v", f.armed, f.mode)
	}
	// Unknown command returns unsupported.
	f.Enqueue(&mavlink.CommandLong{Command: 999})
	f.Step()
	replies = f.DrainOutbox()
	if ack := replies[0].(*mavlink.CommandAck); ack.Result != 3 {
		t.Errorf("unknown command result = %d, want 3", ack.Result)
	}
}

func TestFirmwareMissionUploadViaGCS(t *testing.T) {
	f := newTestFirmware(t, Config{})
	f.Enqueue(&mavlink.MissionItem{Seq: 0, X: 0, Y: 0, Z: -10})
	f.Enqueue(&mavlink.MissionItem{Seq: 1, X: 30, Y: 0, Z: -10, Hold: 1})
	f.Step()
	replies := f.DrainOutbox()
	if len(replies) != 1 {
		t.Fatalf("replies = %d", len(replies))
	}
	ack := replies[0].(*mavlink.MissionAck)
	if !ack.OK || ack.Count != 2 {
		t.Errorf("mission ack = %+v", ack)
	}
	if f.Mission().Len() != 2 {
		t.Errorf("mission length = %d", f.Mission().Len())
	}
}

func TestFirmwareHeartbeatAndParamRead(t *testing.T) {
	f := newTestFirmware(t, Config{})
	f.Enqueue(&mavlink.Heartbeat{})
	f.Enqueue(&mavlink.ParamRequestRead{Name: "ATC_RAT_YAW_FLTT"})
	f.Step()
	replies := f.DrainOutbox()
	if len(replies) != 2 {
		t.Fatalf("replies = %d, want 2", len(replies))
	}
	if _, ok := replies[0].(*mavlink.Heartbeat); !ok {
		t.Errorf("first reply %T, want heartbeat", replies[0])
	}
	pv := replies[1].(*mavlink.ParamValue)
	if !pv.OK || pv.Value != 5 {
		t.Errorf("param read = %+v", pv)
	}
}

func TestFirmwareDataflashLogging(t *testing.T) {
	var buf bytes.Buffer
	w := dataflash.NewWriter(&buf)
	f := newTestFirmware(t, Config{LogWriter: w})
	if err := f.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	f.RunFor(5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := dataflash.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 16 Hz for 5 s: ~80 samples of each message type.
	counts := make(map[string]int)
	for _, rec := range log.Records {
		counts[rec.Name]++
	}
	for _, name := range []string{"ATT", "IMU", "PIDR", "EKF1", "NTUN", "RCOU", "GPS"} {
		if counts[name] < 70 {
			t.Errorf("%s records = %d, want ≥70", name, counts[name])
		}
	}
	// The logged roll must track the true roll scale (degrees, small).
	_, rolls := log.Series("ATT.Roll")
	for _, v := range rolls {
		if math.Abs(v) > 45 {
			t.Fatalf("logged roll %v deg out of plausible hover range", v)
		}
	}
}

// TestDataflashLogBytesPinned pins the exact bytes of a 20 s logged
// flight (an 8 s launch and 12 s of a square mission, so the log covers
// takeoff, hover and turns): any change to what writeLogs reads or how
// it resolves its cells must leave every logged value bit-identical.
func TestDataflashLogBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	w := dataflash.NewWriter(&buf)
	f, err := Launch(Config{Sensors: sensors.Seeded(7), LogWriter: w}, SquareMission(25, 10), 8)
	if err != nil {
		t.Fatal(err)
	}
	f.RunFor(12)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	const want = "e16a2d616af552da8f3956de52da1d815a32e4972bb8d856d3843cd144390356"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("dataflash log of %d bytes has SHA-256 %s, want %s", buf.Len(), got, want)
	}
}

func TestFirmwareVariableManipulationTiltsVehicle(t *testing.T) {
	// The core threat-model path: writing PIDR.INTEG through the
	// stabilizer region's memory view changes the real flight.
	f := newTestFirmware(t, Config{})
	if err := f.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	f.RunFor(10)
	ref, err := f.Memory().Access(RegionStabilizer, "PIDR.INTEG", true)
	if err != nil {
		t.Fatal(err)
	}
	// Persistently bias the roll integrator. The position controller
	// fights back (that compensation is exactly what the paper's ML
	// monitor watches), so assert both the attitude disturbance and the
	// residual drift.
	start := f.Quad().State().Pos
	var maxRoll float64
	for i := 0; i < 8*400; i++ {
		ref.Set(0.3)
		f.Step()
		roll, _, _ := f.Quad().State().Att.Euler()
		if r := math.Abs(roll); r > maxRoll {
			maxRoll = r
		}
	}
	if maxRoll < mathx.Rad(5) {
		t.Errorf("max roll under manipulation = %.1f deg, want > 5",
			mathx.Deg(maxRoll))
	}
	drift := f.Quad().State().Pos.Sub(start).XY()
	if drift < 0.5 {
		t.Errorf("integrator manipulation produced %v m drift, want > 0.5", drift)
	}
}

func TestFirmwareBatteryFailsafe(t *testing.T) {
	params := Config{}
	f := newTestFirmware(t, params)
	if err := f.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	f.RunFor(5)
	// Force the failsafe threshold above the current voltage.
	if err := f.Params().Set("BATT_LOW_VOLT", 49); err != nil {
		t.Fatal(err)
	}
	f.Step()
	if f.mode != modeLand {
		t.Errorf("mode = %v, want LAND after battery failsafe", f.mode)
	}
}

// TestBatteryFailsafeViaGCS drives the battery failsafe the way a
// parameter attack does: a MAVLink PARAM_SET through the firmware inbox in
// the middle of an AUTO mission. Raising BATT_LOW_VOLT above the pack
// voltage lands the vehicle on the very tick that applies the write;
// with FS_BATT_ENABLE cleared first, the same write leaves it in AUTO.
func TestBatteryFailsafeViaGCS(t *testing.T) {
	for _, tt := range []struct {
		name    string
		disable bool
		want    Mode
	}{
		{"enabled", false, modeLand},
		{"disabled", true, ModeAuto},
	} {
		t.Run(tt.name, func(t *testing.T) {
			f, err := Launch(Config{}, LineMission(200, 10), 5)
			if err != nil {
				t.Fatal(err)
			}
			f.RunFor(3)
			if tt.disable {
				f.Enqueue(&mavlink.ParamSet{Name: "FS_BATT_ENABLE", Value: 0})
				f.Step()
			}
			if f.mode != ModeAuto {
				t.Fatalf("mode = %v before the write, want AUTO", f.mode)
			}
			f.Enqueue(&mavlink.ParamSet{Name: "BATT_LOW_VOLT", Value: 49})
			f.Step()
			for _, m := range f.DrainOutbox() {
				if pv, ok := m.(*mavlink.ParamValue); ok && pv.Name == "BATT_LOW_VOLT" && !pv.OK {
					t.Fatalf("PARAM_SET BATT_LOW_VOLT 49 rejected: %+v", pv)
				}
			}
			if f.mode != tt.want {
				t.Errorf("mode = %v after PARAM_SET BATT_LOW_VOLT 49, want %v", f.mode, tt.want)
			}
		})
	}
}

func TestModeString(t *testing.T) {
	tests := []struct {
		mode Mode
		want string
	}{
		{modeStabilize, "STABILIZE"}, {modeGuided, "GUIDED"},
		{ModeAuto, "AUTO"}, {modeLoiter, "LOITER"},
		{modeRTL, "RTL"}, {modeLand, "LAND"}, {Mode(42), "MODE(42)"},
	}
	for _, tt := range tests {
		if got := tt.mode.String(); got != tt.want {
			t.Errorf("mode = %q, want %q", got, tt.want)
		}
	}
}
