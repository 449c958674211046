package mavlink

import (
	"bufio"
	"errors"
	"io"
	"sync"
)

// Endpoint sends and receives typed messages over any stream transport —
// a TCP connection, a serial line, or an in-memory pipe in tests.
type Endpoint struct {
	sysID  uint8
	compID uint8

	mu  sync.Mutex
	seq uint8
	w   io.Writer
	r   *bufio.Reader
}

// NewEndpoint wraps a transport. sysID identifies this end (1 = vehicle,
// 255 = ground station by convention).
func NewEndpoint(rw io.ReadWriter, sysID uint8) *Endpoint {
	return &Endpoint{
		sysID:  sysID,
		compID: 1,
		w:      rw,
		r:      bufio.NewReader(rw),
	}
}

// Send encodes and transmits one message.
func (e *Endpoint) Send(m Message) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := Frame{
		Seq:     e.seq,
		SysID:   e.sysID,
		CompID:  e.compID,
		MsgID:   m.ID(),
		Payload: m.Marshal(),
	}
	e.seq++
	return writeFrame(e.w, f)
}

// Recv blocks for the next valid message, skipping frames with checksum
// errors and unknown message IDs (forward compatibility).
func (e *Endpoint) Recv() (Message, error) {
	for {
		f, err := readFrame(e.r)
		if errors.Is(err, errBadChecksum) {
			continue
		}
		if err != nil {
			return nil, err
		}
		m, err := Decode(f)
		if err != nil {
			continue // unknown message: skip
		}
		return m, nil
	}
}
