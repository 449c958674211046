package firmware

import (
	"math"

	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/mavlink"
)

// Enqueue posts a GCS message to the firmware's inbox; it is processed at
// the start of the next main-loop tick, mirroring how real autopilots poll
// the telemetry UART. Safe for concurrent use.
func (f *Firmware) Enqueue(m mavlink.Message) {
	f.inboxMu.Lock()
	defer f.inboxMu.Unlock()
	f.inbox = append(f.inbox, m)
}

// DrainOutbox removes and returns any replies generated since the last call.
func (f *Firmware) DrainOutbox() []mavlink.Message {
	f.inboxMu.Lock()
	defer f.inboxMu.Unlock()
	out := f.outbox
	f.outbox = nil
	return out
}

func (f *Firmware) drainInbox() {
	f.inboxMu.Lock()
	pending := f.inbox
	f.inbox = nil
	f.inboxMu.Unlock()

	var replies []mavlink.Message
	var items []*mavlink.MissionItem
	for _, m := range pending {
		if mi, ok := m.(*mavlink.MissionItem); ok {
			items = append(items, mi)
			continue
		}
		if r := f.handleMessage(m); r != nil {
			replies = append(replies, r)
		}
	}
	if len(items) > 0 {
		replies = append(replies, f.handleMissionUpload(items))
	}
	if len(replies) > 0 {
		f.inboxMu.Lock()
		f.outbox = append(f.outbox, replies...)
		f.inboxMu.Unlock()
	}
}

// handleMessage processes one GCS message and returns the reply, if any.
func (f *Firmware) handleMessage(m mavlink.Message) mavlink.Message {
	switch msg := m.(type) {
	case *mavlink.Heartbeat:
		return &mavlink.Heartbeat{Type: 2, Autopilot: 3, Status: 4,
			CustomMode: uint32(f.mode)}

	case *mavlink.ParamSet:
		// The GCS parameter channel: range-validated, then applied live.
		err := f.params.Set(msg.Name, msg.Value)
		val, gerr := f.params.Get(msg.Name)
		if gerr != nil {
			val = 0
		}
		return &mavlink.ParamValue{Name: msg.Name, Value: val, OK: err == nil}

	case *mavlink.ParamRequestRead:
		val, err := f.params.Get(msg.Name)
		return &mavlink.ParamValue{Name: msg.Name, Value: val, OK: err == nil}

	case *mavlink.CommandLong:
		return f.handleCommand(msg)

	default:
		return nil
	}
}

func (f *Firmware) handleCommand(c *mavlink.CommandLong) mavlink.Message {
	result := uint8(0) // accepted
	switch c.Command {
	case mavlink.CmdArmDisarm:
		switch arm := c.Params[0]; {
		case !finite(arm):
			result = 4 // failed: NaN would otherwise read as disarm
		case arm >= 0.5:
			if err := f.Arm(); err != nil {
				result = 4
			}
		default:
			f.Disarm()
		}
	case mavlink.CmdTakeoff:
		if err := f.Takeoff(c.Params[6]); err != nil {
			result = 4
		}
	case mavlink.CmdLand:
		f.SetMode(modeLand)
	case mavlink.CmdRTL:
		f.SetMode(modeRTL)
	case mavlink.CmdSetMode:
		// Only a number that truncates to one of the six modes switches;
		// NaN fails both comparisons.
		if m := c.Params[0]; m >= float64(modeStabilize) && m < float64(modeLand+1) {
			f.SetMode(Mode(int(m)))
		} else {
			result = 4
		}
	case mavlink.CmdMissionGo:
		if err := f.StartMission(); err != nil {
			result = 4
		}
	default:
		result = 3 // unsupported
	}
	return &mavlink.CommandAck{Command: c.Command, Result: result}
}

// handleMissionUpload replaces the mission with the uploaded items. An
// upload carrying a non-finite coordinate or hold time is refused whole and
// the loaded mission kept.
func (f *Firmware) handleMissionUpload(items []*mavlink.MissionItem) mavlink.Message {
	wps := make([]Waypoint, len(items))
	for i, it := range items {
		if !finite(it.X, it.Y, it.Z, it.Hold) {
			return &mavlink.MissionAck{Count: uint16(len(items)), OK: false}
		}
		wps[i] = Waypoint{
			Pos:   mathx.V3(it.X, it.Y, it.Z),
			HoldS: it.Hold,
		}
	}
	f.LoadMission(NewMission(wps))
	return &mavlink.MissionAck{Count: uint16(len(items)), OK: true}
}

// finite reports whether every value is neither NaN nor ±Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// TelemetrySnapshot builds the downlink messages a GCS would display.
func (f *Firmware) TelemetrySnapshot() []mavlink.Message {
	roll, pitch, yaw := f.est.Attitude()
	pos := f.est.Position()
	vel := f.est.Velocity()
	return []mavlink.Message{
		&mavlink.Attitude{TimeS: f.Time(), Roll: roll, Pitch: pitch, Yaw: yaw},
		&mavlink.GlobalPosition{TimeS: f.Time(),
			X: pos.X, Y: pos.Y, Z: pos.Z, VX: vel.X, VY: vel.Y},
	}
}
