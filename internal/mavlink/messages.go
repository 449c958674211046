package mavlink

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Message IDs (the subset of the common MAVLink dialect the system needs).
const (
	msgIDHeartbeat        = 0
	msgIDParamRequestRead = 20
	MsgIDParamValue       = 22
	msgIDParamSet         = 23
	msgIDAttitude         = 30
	msgIDGlobalPosition   = 33
	msgIDMissionItem      = 39
	MsgIDMissionAck       = 47
	msgIDCommandLong      = 76
	MsgIDCommandAck       = 77
	msgIDStatusText       = 253
)

// Command IDs for CommandLong.
const (
	CmdArmDisarm = 400
	CmdTakeoff   = 22
	CmdLand      = 21
	CmdSetMode   = 176
	CmdMissionGo = 300
	CmdRTL       = 20
)

// Message is any encodable protocol message.
type Message interface {
	// ID returns the MAVLink message ID.
	ID() uint8
	// Marshal encodes the payload.
	Marshal() []byte
	// Unmarshal decodes the payload in place.
	Unmarshal(p []byte) error
}

// Heartbeat announces system liveness and mode.
type Heartbeat struct {
	Type       uint8
	Autopilot  uint8
	BaseMode   uint8
	CustomMode uint32
	Status     uint8
}

// ID implements Message.
func (*Heartbeat) ID() uint8 { return msgIDHeartbeat }

// Marshal implements Message.
func (m *Heartbeat) Marshal() []byte {
	p := make([]byte, 8)
	binary.LittleEndian.PutUint32(p[0:], m.CustomMode)
	p[4] = m.Type
	p[5] = m.Autopilot
	p[6] = m.BaseMode
	p[7] = m.Status
	return p
}

// Unmarshal implements Message.
func (m *Heartbeat) Unmarshal(p []byte) error {
	if len(p) < 8 {
		return shortPayload("HEARTBEAT", len(p))
	}
	m.CustomMode = binary.LittleEndian.Uint32(p[0:])
	m.Type = p[4]
	m.Autopilot = p[5]
	m.BaseMode = p[6]
	m.Status = p[7]
	return nil
}

// ParamSet asks the vehicle to change one parameter. This is the message
// MAVProxy issues for the paper's 0.3 s-interval adversarial injections.
type ParamSet struct {
	Name  string // at most 16 chars
	Value float64
}

// ID implements Message.
func (*ParamSet) ID() uint8 { return msgIDParamSet }

// Marshal implements Message.
func (m *ParamSet) Marshal() []byte {
	p := make([]byte, 20)
	binary.LittleEndian.PutUint32(p[0:], math.Float32bits(float32(m.Value)))
	copy(p[4:20], m.Name)
	return p
}

// Unmarshal implements Message.
func (m *ParamSet) Unmarshal(p []byte) error {
	if len(p) < 20 {
		return shortPayload("PARAM_SET", len(p))
	}
	m.Value = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[0:])))
	m.Name = cString(p[4:20])
	return nil
}

// ParamRequestRead asks for one parameter's current value.
type ParamRequestRead struct {
	Name string
}

// ID implements Message.
func (*ParamRequestRead) ID() uint8 { return msgIDParamRequestRead }

// Marshal implements Message.
func (m *ParamRequestRead) Marshal() []byte {
	p := make([]byte, 16)
	copy(p, m.Name)
	return p
}

// Unmarshal implements Message.
func (m *ParamRequestRead) Unmarshal(p []byte) error {
	if len(p) < 16 {
		return shortPayload("PARAM_REQUEST_READ", len(p))
	}
	m.Name = cString(p[:16])
	return nil
}

// ParamValue reports one parameter's value (reply to set/request).
type ParamValue struct {
	Name  string
	Value float64
	// OK distinguishes an applied set (true) from a rejected one.
	OK bool
}

// ID implements Message.
func (*ParamValue) ID() uint8 { return MsgIDParamValue }

// Marshal implements Message.
func (m *ParamValue) Marshal() []byte {
	p := make([]byte, 21)
	binary.LittleEndian.PutUint32(p[0:], math.Float32bits(float32(m.Value)))
	copy(p[4:20], m.Name)
	if m.OK {
		p[20] = 1
	}
	return p
}

// Unmarshal implements Message.
func (m *ParamValue) Unmarshal(p []byte) error {
	if len(p) < 21 {
		return shortPayload("PARAM_VALUE", len(p))
	}
	m.Value = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[0:])))
	m.Name = cString(p[4:20])
	m.OK = p[20] == 1
	return nil
}

// CommandLong carries a command with up to seven float parameters.
type CommandLong struct {
	Command uint16
	Params  [7]float64
}

// ID implements Message.
func (*CommandLong) ID() uint8 { return msgIDCommandLong }

// Marshal implements Message.
func (m *CommandLong) Marshal() []byte {
	p := make([]byte, 30)
	for i, v := range m.Params {
		binary.LittleEndian.PutUint32(p[i*4:], math.Float32bits(float32(v)))
	}
	binary.LittleEndian.PutUint16(p[28:], m.Command)
	return p
}

// Unmarshal implements Message.
func (m *CommandLong) Unmarshal(p []byte) error {
	if len(p) < 30 {
		return shortPayload("COMMAND_LONG", len(p))
	}
	for i := range m.Params {
		m.Params[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[i*4:])))
	}
	m.Command = binary.LittleEndian.Uint16(p[28:])
	return nil
}

// CommandAck acknowledges a CommandLong. Result 0 means accepted.
type CommandAck struct {
	Command uint16
	Result  uint8
}

// ID implements Message.
func (*CommandAck) ID() uint8 { return MsgIDCommandAck }

// Marshal implements Message.
func (m *CommandAck) Marshal() []byte {
	p := make([]byte, 3)
	binary.LittleEndian.PutUint16(p[0:], m.Command)
	p[2] = m.Result
	return p
}

// Unmarshal implements Message.
func (m *CommandAck) Unmarshal(p []byte) error {
	if len(p) < 3 {
		return shortPayload("COMMAND_ACK", len(p))
	}
	m.Command = binary.LittleEndian.Uint16(p[0:])
	m.Result = p[2]
	return nil
}

// MissionItem uploads one waypoint (local NED coordinates in meters).
type MissionItem struct {
	Seq     uint16
	X, Y, Z float64
	Hold    float64 // seconds to hold at the waypoint
}

// ID implements Message.
func (*MissionItem) ID() uint8 { return msgIDMissionItem }

// Marshal implements Message.
func (m *MissionItem) Marshal() []byte {
	p := make([]byte, 18)
	binary.LittleEndian.PutUint16(p[0:], m.Seq)
	binary.LittleEndian.PutUint32(p[2:], math.Float32bits(float32(m.X)))
	binary.LittleEndian.PutUint32(p[6:], math.Float32bits(float32(m.Y)))
	binary.LittleEndian.PutUint32(p[10:], math.Float32bits(float32(m.Z)))
	binary.LittleEndian.PutUint32(p[14:], math.Float32bits(float32(m.Hold)))
	return p
}

// Unmarshal implements Message.
func (m *MissionItem) Unmarshal(p []byte) error {
	if len(p) < 18 {
		return shortPayload("MISSION_ITEM", len(p))
	}
	m.Seq = binary.LittleEndian.Uint16(p[0:])
	m.X = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[2:])))
	m.Y = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[6:])))
	m.Z = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[10:])))
	m.Hold = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[14:])))
	return nil
}

// MissionAck confirms a mission upload.
type MissionAck struct {
	Count uint16
	OK    bool
}

// ID implements Message.
func (*MissionAck) ID() uint8 { return MsgIDMissionAck }

// Marshal implements Message.
func (m *MissionAck) Marshal() []byte {
	p := make([]byte, 3)
	binary.LittleEndian.PutUint16(p[0:], m.Count)
	if m.OK {
		p[2] = 1
	}
	return p
}

// Unmarshal implements Message.
func (m *MissionAck) Unmarshal(p []byte) error {
	if len(p) < 3 {
		return shortPayload("MISSION_ACK", len(p))
	}
	m.Count = binary.LittleEndian.Uint16(p[0:])
	m.OK = p[2] == 1
	return nil
}

// Attitude streams the vehicle attitude (telemetry downlink).
type Attitude struct {
	TimeS            float64
	Roll, Pitch, Yaw float64
}

// ID implements Message.
func (*Attitude) ID() uint8 { return msgIDAttitude }

// Marshal implements Message.
func (m *Attitude) Marshal() []byte {
	p := make([]byte, 16)
	binary.LittleEndian.PutUint32(p[0:], uint32(m.TimeS*1000))
	binary.LittleEndian.PutUint32(p[4:], math.Float32bits(float32(m.Roll)))
	binary.LittleEndian.PutUint32(p[8:], math.Float32bits(float32(m.Pitch)))
	binary.LittleEndian.PutUint32(p[12:], math.Float32bits(float32(m.Yaw)))
	return p
}

// Unmarshal implements Message.
func (m *Attitude) Unmarshal(p []byte) error {
	if len(p) < 16 {
		return shortPayload("ATTITUDE", len(p))
	}
	m.TimeS = float64(binary.LittleEndian.Uint32(p[0:])) / 1000
	m.Roll = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[4:])))
	m.Pitch = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[8:])))
	m.Yaw = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[12:])))
	return nil
}

// GlobalPosition streams the vehicle position (local NED meters).
type GlobalPosition struct {
	TimeS   float64
	X, Y, Z float64
	VX, VY  float64
}

// ID implements Message.
func (*GlobalPosition) ID() uint8 { return msgIDGlobalPosition }

// Marshal implements Message.
func (m *GlobalPosition) Marshal() []byte {
	p := make([]byte, 24)
	binary.LittleEndian.PutUint32(p[0:], uint32(m.TimeS*1000))
	for i, v := range []float64{m.X, m.Y, m.Z, m.VX, m.VY} {
		binary.LittleEndian.PutUint32(p[4+i*4:], math.Float32bits(float32(v)))
	}
	return p
}

// Unmarshal implements Message.
func (m *GlobalPosition) Unmarshal(p []byte) error {
	if len(p) < 24 {
		return shortPayload("GLOBAL_POSITION", len(p))
	}
	m.TimeS = float64(binary.LittleEndian.Uint32(p[0:])) / 1000
	vals := make([]float64, 5)
	for i := range vals {
		vals[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[4+i*4:])))
	}
	m.X, m.Y, m.Z, m.VX, m.VY = vals[0], vals[1], vals[2], vals[3], vals[4]
	return nil
}

// StatusText carries a severity-tagged text message from the vehicle.
type StatusText struct {
	Severity uint8
	Text     string // at most 50 chars
}

// ID implements Message.
func (*StatusText) ID() uint8 { return msgIDStatusText }

// Marshal implements Message.
func (m *StatusText) Marshal() []byte {
	p := make([]byte, 51)
	p[0] = m.Severity
	copy(p[1:], m.Text)
	return p
}

// Unmarshal implements Message.
func (m *StatusText) Unmarshal(p []byte) error {
	if len(p) < 51 {
		return shortPayload("STATUSTEXT", len(p))
	}
	m.Severity = p[0]
	m.Text = cString(p[1:51])
	return nil
}

// Decode constructs the typed message for a frame.
func Decode(f Frame) (Message, error) {
	var m Message
	switch f.MsgID {
	case msgIDHeartbeat:
		m = &Heartbeat{}
	case msgIDParamSet:
		m = &ParamSet{}
	case msgIDParamRequestRead:
		m = &ParamRequestRead{}
	case MsgIDParamValue:
		m = &ParamValue{}
	case msgIDCommandLong:
		m = &CommandLong{}
	case MsgIDCommandAck:
		m = &CommandAck{}
	case msgIDMissionItem:
		m = &MissionItem{}
	case MsgIDMissionAck:
		m = &MissionAck{}
	case msgIDAttitude:
		m = &Attitude{}
	case msgIDGlobalPosition:
		m = &GlobalPosition{}
	case msgIDStatusText:
		m = &StatusText{}
	default:
		return nil, fmt.Errorf("mavlink: unknown message id %d", f.MsgID)
	}
	if err := m.Unmarshal(f.Payload); err != nil {
		return nil, err
	}
	return m, nil
}

func shortPayload(name string, n int) error {
	return fmt.Errorf("mavlink: %s payload too short (%d bytes)", name, n)
}

// cString trims a fixed-width zero-padded string field.
func cString(p []byte) string {
	for i, b := range p {
		if b == 0 {
			return string(p[:i])
		}
	}
	return string(p)
}
