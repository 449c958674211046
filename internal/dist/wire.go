package dist

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"github.com/ares-cps/ares/internal/campaign"
)

// Wire envelopes of the worker↔coordinator protocol. Every message is a
// small JSON document decoded strictly on both ends: unknown fields,
// trailing bytes and oversized bodies are errors, mirroring the spec
// submission surface (campaign.DecodeSpec). Records requests reuse
// campaign.Record verbatim, so the bytes a worker streams are the bytes
// the coordinator's store would have written locally.

// Wire size caps. Control messages are tiny; a lease response carries at
// most a few hundred job keys. A Worker's records request carries one
// record; the records cap bounds what any client may post.
const (
	maxControlBytes  = 64 << 10
	maxLeaseBytes    = 1 << 20
	maxRecordsBytes  = 4 << 20
	maxWorkerIDBytes = 128
)

// registerRequest announces a worker to the coordinator. Registration is
// idempotent: re-registering after a worker restart refreshes its entry.
type registerRequest struct {
	// Worker is the worker's stable identity; it names the worker's
	// leases in the coordinator's log and registry.
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

// LeaseRequest asks for a batch of at most CoordConfig.MaxLease jobs.
type LeaseRequest struct {
	Worker string `json:"worker"`
	// Slots is how many jobs the worker runs at once (its runner width);
	// a lease grants at least that many while enough are pending. Zero,
	// as from a worker that omits it, counts as 1.
	Slots int `json:"slots,omitempty"`
}

// LeaseResponse grants a batch, or — with an empty Lease — says nothing
// is pending now. Wake is then the coordinator's wake counter, which the
// worker's WaitRequest names.
type LeaseResponse struct {
	Lease    string `json:"lease,omitempty"`
	Campaign string `json:"campaign,omitempty"`
	// Keys names the leased jobs. The worker expands the campaign's spec
	// locally (fetched once per campaign) and maps keys back to jobs, so
	// the wire carries identities, not job bodies — determinism makes the
	// worker-side expansion bit-identical to the coordinator's.
	Keys []string `json:"keys,omitempty"`
	Wake uint64   `json:"wake,omitempty"`
}

// WaitRequest parks an idle worker until work may be pending. Wake is the
// counter of the worker's last empty lease: a coordinator whose counter
// has moved since answers at once.
type WaitRequest struct {
	Worker string `json:"worker"`
	Wake   uint64 `json:"wake"`
}

// WaitResponse ends a parked wait: the worker leases again, or, when the
// coordinator is draining, backs off first.
type WaitResponse struct {
	Draining bool `json:"draining,omitempty"`
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

// RecordsRequest streams finished records; a Worker posts each one alone,
// as its cell finishes. Offset is the position of the first record in the
// lease's record stream: the
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

// decodeWire strictly parses one JSON envelope: campaign.DecodeStrict
// (no unknown fields, no trailing data) over at most limit bytes. It is
// the surface FuzzDistEnvelope drives.
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
	return campaign.DecodeStrict(bytes.NewReader(data), v)
}

// validWorkerID vets a worker identity: non-empty, bounded, and free of
// separators and control characters (IDs appear in log lines and URLs).
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
