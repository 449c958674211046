// Package mavlink implements the GCS↔vehicle telemetry protocol used for
// parameter updates, commands and mission upload — the remote attack surface
// of the paper's threat model ("the attacker ... can concoct and issue
// malicious GCS commands to update the control parameters in the victim
// RAV").
//
// The wire format follows MAVLink v1 framing: a 0xFE start byte, length,
// sequence number, system/component IDs, message ID, payload and a CRC-X.25
// checksum. Only the message subset the evaluation needs is implemented,
// each with hand-written little-endian codecs.
package mavlink

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// stx is the MAVLink v1 frame start marker.
const stx = 0xFE

// maxPayload bounds a frame payload (MAVLink v1 limit).
const maxPayload = 255

// Frame is a raw protocol frame.
type Frame struct {
	Seq     uint8
	SysID   uint8
	CompID  uint8
	MsgID   uint8
	Payload []byte
}

// errBadChecksum reports a frame whose CRC failed.
var errBadChecksum = errors.New("mavlink: bad checksum")

// crcX25 computes the CRC-16/MCRF4XX checksum MAVLink uses (the X.25
// polynomial with reflected processing and no final XOR).
func crcX25(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		tmp := uint16(b) ^ (crc & 0xFF)
		tmp ^= tmp << 4
		tmp &= 0xFF
		crc = (crc >> 8) ^ (tmp << 8) ^ (tmp << 3) ^ (tmp >> 4)
	}
	return crc
}

// writeFrame encodes and writes one frame.
func writeFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > maxPayload {
		return fmt.Errorf("mavlink: payload %d exceeds %d bytes", len(f.Payload), maxPayload)
	}
	buf := make([]byte, 0, 8+len(f.Payload))
	buf = append(buf, stx, byte(len(f.Payload)), f.Seq, f.SysID, f.CompID, f.MsgID)
	buf = append(buf, f.Payload...)
	crc := crcX25(buf[1:]) // CRC covers everything after STX
	buf = binary.LittleEndian.AppendUint16(buf, crc)
	_, err := w.Write(buf)
	return err
}

// readFrame reads the next well-formed frame, skipping garbage bytes until a
// start marker is found. A CRC failure returns errBadChecksum (the caller
// may continue reading).
func readFrame(r *bufio.Reader) (Frame, error) {
	for {
		b, err := r.ReadByte()
		if err != nil {
			return Frame{}, err
		}
		if b != stx {
			continue // resync
		}
		header := make([]byte, 5)
		if _, err := io.ReadFull(r, header); err != nil {
			return Frame{}, fmt.Errorf("mavlink: truncated header: %w", err)
		}
		payloadLen := int(header[0])
		rest := make([]byte, payloadLen+2)
		if _, err := io.ReadFull(r, rest); err != nil {
			return Frame{}, fmt.Errorf("mavlink: truncated frame: %w", err)
		}
		body := append(header, rest[:payloadLen]...)
		wantCRC := binary.LittleEndian.Uint16(rest[payloadLen:])
		if crcX25(body) != wantCRC {
			return Frame{}, errBadChecksum
		}
		return Frame{
			Seq:     header[1],
			SysID:   header[2],
			CompID:  header[3],
			MsgID:   header[4],
			Payload: rest[:payloadLen],
		}, nil
	}
}
