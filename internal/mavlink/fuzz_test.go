package mavlink

import (
	"bufio"
	"bytes"
	"testing"
)

// frameBytes encodes f, failing the test on error.
func frameBytes(tb testing.TB, f Frame) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzParseFrame drives readFrame over arbitrary byte streams: it must never
// panic, must terminate, and every frame it does accept must survive a
// re-encode/re-decode round trip bit-for-bit.
//
// CI runs this for a short budget (see .github/workflows/ci.yml); locally:
//
//	go test -fuzz=FuzzParseFrame -fuzztime=30s ./internal/mavlink
func FuzzParseFrame(f *testing.F) {
	valid := frameBytes(f, Frame{Seq: 7, SysID: 1, CompID: 1, MsgID: 23,
		Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated mid-CRC
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xFF
	f.Add(badCRC)
	f.Add(frameBytes(f, Frame{}))                          // empty payload
	f.Add(append([]byte{0x00, 0x42, stx}, valid...))       // garbage prefix, resync
	f.Add(append(append([]byte(nil), valid...), valid...)) // back-to-back frames
	f.Add([]byte{stx})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			fr, err := readFrame(r)
			if err == errBadChecksum {
				continue // stream-level resync, keep scanning
			}
			if err != nil {
				return // EOF or truncation: stream exhausted
			}
			if len(fr.Payload) > maxPayload {
				t.Fatalf("payload %d exceeds protocol max", len(fr.Payload))
			}
			reenc := frameBytes(t, fr)
			back, err := readFrame(bufio.NewReader(bytes.NewReader(reenc)))
			if err != nil {
				t.Fatalf("re-decode of accepted frame failed: %v\nframe: %+v", err, fr)
			}
			if back.Seq != fr.Seq || back.SysID != fr.SysID ||
				back.CompID != fr.CompID || back.MsgID != fr.MsgID ||
				!bytes.Equal(back.Payload, fr.Payload) {
				t.Fatalf("round trip mismatch: %+v != %+v", back, fr)
			}
		}
	})
}
