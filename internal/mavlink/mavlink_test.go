package mavlink

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

func TestCRCX25KnownVector(t *testing.T) {
	// MAVLink's crc_accumulate is CRC-16/MCRF4XX (X.25 without the final
	// XOR); its check value for "123456789" is 0x6F91.
	if got := crcX25([]byte("123456789")); got != 0x6F91 {
		t.Errorf("crc = %#04x, want 0x6f91", got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Seq: 7, SysID: 255, CompID: 1, MsgID: 23, Payload: []byte{1, 2, 3}}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("frame round trip: %+v != %+v", out, in)
	}
}

func TestFrameResyncSkipsGarbage(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0x00, 0x13, 0x37}) // garbage
	if err := writeFrame(&buf, Frame{MsgID: 5, Payload: []byte{9}}); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if f.MsgID != 5 || len(f.Payload) != 1 || f.Payload[0] != 9 {
		t.Errorf("frame after garbage: %+v", f)
	}
}

func TestFrameChecksumRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, Frame{MsgID: 5, Payload: []byte{1, 2}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF // corrupt CRC
	_, err := readFrame(bufio.NewReader(bytes.NewReader(raw)))
	if !errors.Is(err, errBadChecksum) {
		t.Errorf("err = %v, want errBadChecksum", err)
	}
}

func TestFrameOversizedPayload(t *testing.T) {
	err := writeFrame(io.Discard, Frame{Payload: make([]byte, 300)})
	if err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	tests := []Message{
		&Heartbeat{Type: 2, Autopilot: 3, BaseMode: 81, CustomMode: 4, Status: 5},
		&ParamSet{Name: "ATC_RAT_RLL_P", Value: 0.25},
		&ParamRequestRead{Name: "WPNAV_SPEED"},
		&ParamValue{Name: "WPNAV_SPEED", Value: 500, OK: true},
		&CommandLong{Command: CmdTakeoff, Params: [7]float64{0, 0, 0, 0, 0, 0, 15}},
		&CommandAck{Command: CmdTakeoff, Result: 0},
		&MissionItem{Seq: 3, X: 10.5, Y: -2.25, Z: -15, Hold: 2},
		&MissionAck{Count: 4, OK: true},
		&Attitude{TimeS: 12.5, Roll: 0.1, Pitch: -0.2, Yaw: 1.5},
		&GlobalPosition{TimeS: 3.25, X: 1, Y: 2, Z: -3, VX: 0.5, VY: -0.5},
		&StatusText{Severity: 4, Text: "anomaly detected"},
	}
	for _, in := range tests {
		payload := in.Marshal()
		out, err := Decode(Frame{MsgID: in.ID(), Payload: payload})
		if err != nil {
			t.Fatalf("decode %T: %v", in, err)
		}
		if !messagesEqual(in, out) {
			t.Errorf("round trip %T:\n in: %+v\nout: %+v", in, in, out)
		}
	}
}

// messagesEqual compares messages allowing float32 quantization.
func messagesEqual(a, b Message) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	if va.Type() != vb.Type() {
		return false
	}
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Float64:
			if math.Abs(fa.Float()-fb.Float()) > 1e-4 {
				return false
			}
		case reflect.Array:
			for j := 0; j < fa.Len(); j++ {
				if math.Abs(fa.Index(j).Float()-fb.Index(j).Float()) > 1e-4 {
					return false
				}
			}
		default:
			if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
				return false
			}
		}
	}
	return true
}

func TestDecodeUnknownAndShort(t *testing.T) {
	if _, err := Decode(Frame{MsgID: 250}); err == nil {
		t.Error("unknown message decoded")
	}
	if _, err := Decode(Frame{MsgID: msgIDParamSet, Payload: []byte{1}}); err == nil {
		t.Error("short PARAM_SET decoded")
	}
}

func TestEndpointPipe(t *testing.T) {
	gcs, vehicle, closeFn := pipe()
	defer closeFn()

	done := make(chan error, 1)
	go func() {
		defer close(done)
		m, err := vehicle.Recv()
		if err != nil {
			done <- err
			return
		}
		ps, ok := m.(*ParamSet)
		if !ok {
			done <- errors.New("wrong message type")
			return
		}
		done <- vehicle.Send(&ParamValue{Name: ps.Name, Value: ps.Value, OK: true})
	}()

	if err := gcs.Send(&ParamSet{Name: "ATC_RAT_RLL_P", Value: 0.2}); err != nil {
		t.Fatal(err)
	}
	reply, err := gcs.Recv()
	if err != nil {
		t.Fatal(err)
	}
	pv, ok := reply.(*ParamValue)
	if !ok || pv.Name != "ATC_RAT_RLL_P" || !pv.OK {
		t.Errorf("reply = %+v", reply)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestEndpointSequenceNumbers(t *testing.T) {
	var buf bytes.Buffer
	e := NewEndpoint(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(nil), &buf}, 1)
	for i := 0; i < 3; i++ {
		if err := e.Send(&Heartbeat{}); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i := 0; i < 3; i++ {
		f, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if int(f.Seq) != i {
			t.Errorf("seq = %d, want %d", f.Seq, i)
		}
		if f.SysID != 1 {
			t.Errorf("sysid = %d", f.SysID)
		}
	}
}

func TestCStringHandling(t *testing.T) {
	if got := cString([]byte("AB\x00CD")); got != "AB" {
		t.Errorf("cString = %q", got)
	}
	if got := cString([]byte("FULL")); got != "FULL" {
		t.Errorf("cString = %q", got)
	}
}

// pipe returns two connected in-memory endpoints (GCS side, vehicle side).
// The returned closer shuts both directions down.
func pipe() (gcs, vehicle *Endpoint, closeFn func()) {
	gr, vw := io.Pipe()
	vr, gw := io.Pipe()
	gcs = NewEndpoint(struct {
		io.Reader
		io.Writer
	}{gr, gw}, 255)
	vehicle = NewEndpoint(struct {
		io.Reader
		io.Writer
	}{vr, vw}, 1)
	closeFn = func() {
		_ = vw.Close()
		_ = gw.Close()
		_ = gr.Close()
		_ = vr.Close()
	}
	return gcs, vehicle, closeFn
}
