package mavlink

import (
	"bufio"
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestPropertyFrameRoundTrip: any frame with a payload up to the protocol
// limit survives write/read exactly.
func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(seq, sys, comp, msgID uint8, payload []byte) bool {
		if len(payload) > maxPayload {
			payload = payload[:maxPayload]
		}
		in := Frame{Seq: seq, SysID: sys, CompID: comp, MsgID: msgID, Payload: payload}
		var buf bytes.Buffer
		if err := writeFrame(&buf, in); err != nil {
			return false
		}
		out, err := readFrame(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		if len(in.Payload) == 0 && len(out.Payload) == 0 {
			out.Payload, in.Payload = nil, nil
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertySingleBitFlipRejected: flipping any single bit of an encoded
// frame must never yield a frame that decodes to different content with a
// valid checksum. (Resynchronization may skip the frame entirely — that is
// a detected corruption, which is fine.)
func TestPropertySingleBitFlipRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		payload := make([]byte, 1+rng.Intn(32))
		rng.Read(payload)
		in := Frame{Seq: uint8(trial), MsgID: uint8(rng.Intn(250)), Payload: payload}
		var buf bytes.Buffer
		if err := writeFrame(&buf, in); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		bit := rng.Intn(len(raw) * 8)
		raw[bit/8] ^= 1 << (bit % 8)

		out, err := readFrame(bufio.NewReader(bytes.NewReader(raw)))
		if err != nil {
			continue // corruption detected: checksum, truncation, or resync
		}
		// A successful read after a bit flip must still match the
		// original content (the flip hit a redundant encoding position —
		// impossible for this format, so reaching here with different
		// content is a missed corruption).
		if out.MsgID != in.MsgID || !bytes.Equal(out.Payload, in.Payload) ||
			out.Seq != in.Seq || out.SysID != in.SysID || out.CompID != in.CompID {
			t.Fatalf("bit flip %d yielded a different valid frame: %+v vs %+v",
				bit, out, in)
		}
	}
}

// TestPropertyParamSetValues: PARAM_SET round-trips any float32-representable
// value and any printable name up to the field width.
func TestPropertyParamSetValues(t *testing.T) {
	f := func(value float32, nameBytes []byte) bool {
		name := ""
		for _, b := range nameBytes {
			if len(name) >= 16 {
				break
			}
			if b >= 'A' && b <= 'Z' || b == '_' {
				name += string(rune(b))
			}
		}
		in := &ParamSet{Name: name, Value: float64(value)}
		out, err := Decode(Frame{MsgID: in.ID(), Payload: in.Marshal()})
		if err != nil {
			return false
		}
		ps := out.(*ParamSet)
		return ps.Name == name && float32(ps.Value) == value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
