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
// submission surface (campaign.DecodeSpec). Records requests reuse
// campaign.Record verbatim, so the bytes a worker streams are the bytes
// the coordinator's store would have written locally.

// Wire size caps. Control messages are tiny. A lease response carries
// its campaign's spec, which Coordinator.Submit admits only if its lease
// encoding fits campaign.MaxSpecBytes, and job keys whose encoding
// Coordinator.Lease keeps within maxLeaseKeyBytes (a lone first key, built
// from one spec's axis values, fits it too); the rest of the envelope fits
// maxControlBytes. A Worker's records request carries one record; the
// records cap bounds what any client may post.
const (
	maxControlBytes  = 64 << 10
	maxLeaseKeyBytes = campaign.MaxSpecBytes
	maxLeaseBytes    = campaign.MaxSpecBytes + maxLeaseKeyBytes + maxControlBytes
	maxRecordsBytes  = 4 << 20
	maxWorkerIDBytes = 128
)

// leaseJSON is the encoding a lease travels in, spec included: compact
// JSON without HTML escaping, so a '<' costs one byte, not six.
func leaseJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	// Every value passed here is a plain struct of strings and numbers.
	_ = enc.Encode(v)
	return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
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
// worker's WaitRequest names. A granted lease is self-contained: the
// worker's first lease is its hello, and nothing else need be fetched.
type LeaseResponse struct {
	Lease    string `json:"lease,omitempty"`
	Campaign string `json:"campaign,omitempty"`
	// Spec is the campaign's spec. The worker expands it once per campaign
	// and maps Keys back to jobs, so the wire carries identities, not job
	// bodies — determinism makes the worker-side expansion bit-identical
	// to the coordinator's. A spec that does not hash to Campaign is
	// refused.
	Spec *campaign.Spec `json:"spec,omitempty"`
	// Keys names the leased jobs.
	Keys []string `json:"keys,omitempty"`
	// HeartbeatMillis is the interval the worker heartbeats the lease at,
	// a third of the coordinator's lease TTL.
	HeartbeatMillis int64  `json:"heartbeat_ms,omitempty"`
	Wake            uint64 `json:"wake,omitempty"`
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

// RecordsRequest posts finished records of a lease; a Worker posts each
// one alone, as its cell finishes. The coordinator answers {} and drops a
// record whose slot is already filled, so a worker that retries a failed
// POST resends it as is. The lease ends with its last record.
type RecordsRequest struct {
	Worker  string            `json:"worker"`
	Lease   string            `json:"lease"`
	Records []campaign.Record `json:"records"`
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
