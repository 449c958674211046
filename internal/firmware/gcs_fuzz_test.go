package firmware

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"github.com/ares-cps/ares/internal/mavlink"
)

// Ops of the FuzzGCSInbox byte program. Each op is one opcode byte and its
// operands; a missing operand byte reads as zero.
const (
	opParamSet byte = iota
	opParamRead
	opCommand
	opMission
	numOps
)

// Operand kinds of a fuzzed float: a small integer, raw bits, NaN or ±Inf.
const (
	floatSmall byte = iota
	floatBits
	floatNaN
	floatInf
	numFloatKinds
)

// fuzzCommands are the COMMAND_LONG ids an opCommand picks from; the last
// slot takes the id from the next two bytes.
var fuzzCommands = []uint16{
	mavlink.CmdArmDisarm, mavlink.CmdTakeoff, mavlink.CmdLand,
	mavlink.CmdRTL, mavlink.CmdSetMode, mavlink.CmdMissionGo,
}

// inboxProgram decodes the fuzz input. names is the sorted parameter
// table; a name index past its end selects the fuzzed name.
type inboxProgram struct {
	b     []byte
	names []string
	name  string
}

func (p *inboxProgram) byte() byte {
	if len(p.b) == 0 {
		return 0
	}
	c := p.b[0]
	p.b = p.b[1:]
	return c
}

func (p *inboxProgram) float() float64 {
	switch p.byte() % numFloatKinds {
	case floatSmall:
		return float64(int8(p.byte())) / 4
	case floatBits:
		var raw [8]byte
		for i := range raw {
			raw[i] = p.byte()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	case floatNaN:
		return math.NaN()
	default:
		return math.Inf(int(p.byte()%2)*2 - 1)
	}
}

func (p *inboxProgram) paramName() string {
	if i := int(p.byte()) % (len(p.names) + 1); i < len(p.names) {
		return p.names[i]
	}
	return p.name
}

func (p *inboxProgram) command() uint16 {
	if i := int(p.byte()) % (len(fuzzCommands) + 1); i < len(fuzzCommands) {
		return fuzzCommands[i]
	}
	return uint16(p.byte()) | uint16(p.byte())<<8
}

// inboxEncoder writes a FuzzGCSInbox program; it builds the seed corpus.
type inboxEncoder struct {
	b     []byte
	names []string
}

func (e *inboxEncoder) float(v float64) {
	switch {
	case math.IsNaN(v):
		e.b = append(e.b, floatNaN)
	case math.IsInf(v, 1):
		e.b = append(e.b, floatInf, 1)
	case math.IsInf(v, -1):
		e.b = append(e.b, floatInf, 0)
	default:
		e.b = append(e.b, floatBits)
		e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
	}
}

func (e *inboxEncoder) paramName(name string) {
	i := sort.SearchStrings(e.names, name)
	if i == len(e.names) || e.names[i] != name {
		i = len(e.names) // the fuzzed name
	}
	e.b = append(e.b, byte(i))
}

func (e *inboxEncoder) paramSet(name string, v float64) {
	e.b = append(e.b, opParamSet)
	e.paramName(name)
	e.float(v)
}

func (e *inboxEncoder) command(cmd uint16, params [7]float64) {
	e.b = append(e.b, opCommand, byte(len(fuzzCommands)), byte(cmd), byte(cmd>>8))
	for _, v := range params {
		e.float(v)
	}
}

func (e *inboxEncoder) mission(items ...[4]float64) {
	e.b = append(e.b, opMission, byte(len(items)-1))
	for _, it := range items {
		for _, v := range it {
			e.float(v)
		}
	}
}

// FuzzGCSInbox feeds sequences of PARAM_SET, PARAM_REQUEST_READ,
// COMMAND_LONG and mission uploads, with fuzzed names, numbers and floats,
// through the inbox of a firmware flying a mission, one message per tick,
// then flies a few more ticks. Nothing may panic; every PARAM_SET,
// ARM_DISARM, SET_MODE, TAKEOFF or mission upload whose value is
// non-finite must be refused; and every parameter must end finite and
// inside its range.
//
// CI runs this for a short budget (see .github/workflows/ci.yml); locally:
//
//	go test -fuzz=FuzzGCSInbox -fuzztime=30s ./internal/firmware
func FuzzGCSInbox(f *testing.F) {
	probe, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	names := probe.Params().Names()
	seed := func(name string, build func(e *inboxEncoder)) {
		e := &inboxEncoder{names: names}
		build(e)
		f.Add(e.b, name)
	}
	seed("", func(e *inboxEncoder) { e.paramSet("ATC_RAT_RLL_P", math.NaN()) })
	seed("", func(e *inboxEncoder) { e.command(mavlink.CmdSetMode, [7]float64{99}) })
	seed("", func(e *inboxEncoder) { e.command(mavlink.CmdSetMode, [7]float64{math.NaN()}) })
	seed("", func(e *inboxEncoder) { e.command(mavlink.CmdTakeoff, [7]float64{6: math.NaN()}) })
	seed("", func(e *inboxEncoder) { e.command(mavlink.CmdArmDisarm, [7]float64{math.NaN()}) })
	seed("", func(e *inboxEncoder) { e.mission([4]float64{0, 0, -10, 0}, [4]float64{math.NaN(), 0, -10, 1}) })
	seed("WPNAV_SPEED", func(e *inboxEncoder) {
		e.paramSet("WPNAV_SPEED", 500)
		e.paramSet("ATC_RAT_RLL_IMAX", 4000)
		e.b = append(e.b, opParamRead, byte(len(names)))
		e.command(mavlink.CmdRTL, [7]float64{})
		e.paramSet("BATT_LOW_VOLT", math.Inf(1))
		e.mission([4]float64{0, 0, -10, 0}, [4]float64{30, 0, -10, 1})
		e.command(mavlink.CmdMissionGo, [7]float64{})
	})
	seed("", func(e *inboxEncoder) {})

	f.Fuzz(func(t *testing.T, ops []byte, name string) {
		fw, err := Launch(Config{}, LineMission(30, 10), 0)
		if err != nil {
			t.Fatal(err)
		}
		p := &inboxProgram{b: ops, names: names, name: name}
		for n := 0; n < 32 && len(p.b) > 0; n++ {
			checkInboxOp(t, fw, p)
		}
		fw.StepN(20)
		for _, name := range names {
			def, _ := fw.Params().Lookup(name)
			if v, _ := fw.Params().Get(name); !(v >= def.Min && v <= def.Max) {
				t.Fatalf("%s = %v, outside [%v, %v]", name, v, def.Min, def.Max)
			}
		}
	})
}

// checkInboxOp decodes one op, sends it through the inbox, steps once and
// checks the reply.
func checkInboxOp(t *testing.T, fw *Firmware, p *inboxProgram) {
	t.Helper()
	op := p.byte() % numOps
	var msgs []mavlink.Message
	var nonFinite bool
	switch op {
	case opParamSet:
		m := &mavlink.ParamSet{Name: p.paramName(), Value: p.float()}
		nonFinite = !finite(m.Value)
		msgs = append(msgs, m)
	case opParamRead:
		msgs = append(msgs, &mavlink.ParamRequestRead{Name: p.paramName()})
	case opCommand:
		m := &mavlink.CommandLong{Command: p.command()}
		for i := range m.Params {
			m.Params[i] = p.float()
		}
		switch m.Command {
		case mavlink.CmdArmDisarm, mavlink.CmdSetMode:
			nonFinite = !finite(m.Params[0])
		case mavlink.CmdTakeoff:
			nonFinite = !finite(m.Params[6])
		}
		msgs = append(msgs, m)
	case opMission:
		for i := 0; i <= int(p.byte()%4); i++ {
			it := &mavlink.MissionItem{Seq: uint16(i), X: p.float(), Y: p.float(), Z: p.float(), Hold: p.float()}
			nonFinite = nonFinite || !finite(it.X, it.Y, it.Z, it.Hold)
			msgs = append(msgs, it)
		}
	}
	mission := fw.mission
	for _, m := range msgs {
		fw.Enqueue(m)
	}
	fw.Step()
	replies := fw.DrainOutbox()
	if len(replies) != 1 {
		t.Fatalf("%d replies to %T, want 1", len(replies), msgs[0])
	}
	switch r := replies[0].(type) {
	case *mavlink.ParamValue:
		_, known := fw.Params().Lookup(r.Name)
		if op == opParamRead && r.OK != known {
			t.Fatalf("PARAM_REQUEST_READ %q: OK = %v, in table = %v", r.Name, r.OK, known)
		}
		if op == opParamSet && r.OK && (nonFinite || !known) {
			t.Fatalf("PARAM_SET %q %v acknowledged OK", r.Name, msgs[0].(*mavlink.ParamSet).Value)
		}
	case *mavlink.CommandAck:
		if nonFinite && r.Result != 4 {
			t.Fatalf("command %d with a non-finite argument %v: result %d, want 4",
				r.Command, msgs[0].(*mavlink.CommandLong).Params, r.Result)
		}
	case *mavlink.MissionAck:
		if nonFinite && (r.OK || fw.mission != mission) {
			t.Fatalf("mission upload with a non-finite value: ack %+v, mission replaced = %v",
				r, fw.mission != mission)
		}
	default:
		t.Fatalf("reply %T to %T", r, msgs[0])
	}
}
