package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/ares-cps/ares/internal/campaign"
)

// Wire envelopes of the worker↔coordinator protocol. Every message is a
// small JSON document decoded strictly on both ends: unknown fields,
// trailing bytes and oversized bodies are errors, mirroring the spec
// submission surface (campaign.DecodeSpec). Record batches reuse
// campaign.Record verbatim, so the bytes a worker streams are the bytes
// the coordinator's store would have written locally.

// Wire size caps. Control messages are tiny; a lease response carries at
// most a few hundred job keys; a record batch carries FlushEvery records
// plus slack for error strings.
const (
	maxControlBytes  = 64 << 10
	maxLeaseBytes    = 1 << 20
	maxRecordsBytes  = 4 << 20
	maxWorkerIDBytes = 128
)

// RegisterRequest announces a worker to the coordinator. Registration is
// idempotent: re-registering after a worker restart refreshes its entry.
type RegisterRequest struct {
	// Worker is the worker's stable identity; it shards the job space, so
	// a restarted worker with the same ID leases the same shard.
	Worker string `json:"worker"`
}

// RegisterResponse assigns the fleet's timing contract.
type RegisterResponse struct {
	Worker string `json:"worker"`
	// LeaseTTLMillis is how long a granted lease lives without a
	// heartbeat before its jobs are re-leased to other workers.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
	// HeartbeatMillis is the interval the worker must heartbeat at.
	HeartbeatMillis int64 `json:"heartbeat_ms"`
}

// LeaseRequest asks for a batch of jobs.
type LeaseRequest struct {
	Worker string `json:"worker"`
	// Max bounds the batch size (0 = coordinator default).
	Max int `json:"max,omitempty"`
}

// LeaseResponse grants a batch, or — with an empty Lease — tells the
// worker to retry after RetryMillis (no pending work right now).
type LeaseResponse struct {
	Lease    string `json:"lease,omitempty"`
	Campaign string `json:"campaign,omitempty"`
	// Keys names the leased jobs. The worker expands the campaign's spec
	// locally (fetched once per campaign) and maps keys back to jobs, so
	// the wire carries identities, not job bodies — determinism makes the
	// worker-side expansion bit-identical to the coordinator's.
	Keys        []string `json:"keys,omitempty"`
	RetryMillis int64    `json:"retry_ms,omitempty"`
}

// HeartbeatRequest keeps a lease alive.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
}

// HeartbeatResponse acknowledges, or orders the worker to abandon a lease
// it no longer owns (expired and possibly re-leased elsewhere).
type HeartbeatResponse struct {
	OK      bool `json:"ok"`
	Abandon bool `json:"abandon,omitempty"`
}

// RecordsRequest streams a batch of finished records. Offset is the
// position of the batch's first record in the lease's record stream: the
// coordinator acknowledges with the next expected offset, so a worker
// that retries a failed POST resends the same offset and duplicates are
// dropped instead of double-merged.
type RecordsRequest struct {
	Worker  string            `json:"worker"`
	Lease   string            `json:"lease"`
	Offset  int               `json:"offset"`
	Records []campaign.Record `json:"records"`
}

// RecordsResponse acknowledges the stream position.
type RecordsResponse struct {
	Next int `json:"next"`
}

// CompleteRequest reports a lease fully executed and streamed.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
}

// CompleteResponse acknowledges lease completion.
type CompleteResponse struct {
	OK bool `json:"ok"`
}

// decodeWire strictly parses one JSON envelope: at most limit bytes, no
// unknown fields, no trailing data. It is the dist counterpart of
// campaign.DecodeSpec and the surface FuzzDistEnvelope drives.
func decodeWire[T any](r io.Reader, limit int64) (T, error) {
	var v T
	err := decodeWireInto(r, limit, &v)
	return v, err
}

// decodeWireInto is decodeWire for a caller-supplied destination (the
// worker's response decoder, where the target type is chosen at runtime).
func decodeWireInto(r io.Reader, limit int64, v any) error {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return err
	}
	if int64(len(data)) > limit {
		return fmt.Errorf("dist: message exceeds %d bytes", limit)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("dist: trailing data after message")
	}
	return nil
}

// validWorkerID vets a worker identity: non-empty, bounded, and free of
// separators and control characters (IDs appear in job-key shard hashes,
// log lines and URLs).
func validWorkerID(id string) error {
	if id == "" {
		return fmt.Errorf("dist: empty worker id")
	}
	if len(id) > maxWorkerIDBytes {
		return fmt.Errorf("dist: worker id longer than %d bytes", maxWorkerIDBytes)
	}
	if strings.ContainsAny(id, "/ \t\r\n") {
		return fmt.Errorf("dist: worker id %q contains separators or whitespace", id)
	}
	for _, r := range id {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("dist: worker id contains control characters")
		}
	}
	return nil
}
