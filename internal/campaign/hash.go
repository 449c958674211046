package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// SpecHash returns the canonical identity of a campaign spec: the SHA-256
// of the JSON encoding of the normalized spec with the display-only Name
// cleared. Two submissions that expand to the same job list (defaults
// spelled out or omitted, any field order or whitespace in the request
// body) hash equal, which is what singleflight dedup and the result cache
// key on. The hex form doubles as the job and result ID of both daemon
// modes.
func SpecHash(spec Spec) string {
	n := spec.Normalized()
	n.Name = ""
	// encoding/json renders struct fields in declaration order with no
	// optional whitespace, so the encoding is canonical for a fixed Spec
	// type. Marshal of Spec cannot fail (no funcs, channels or cycles).
	b, err := json.Marshal(n)
	if err != nil {
		panic(fmt.Sprintf("campaign: marshal normalized spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// MaxSpecBytes bounds a POST /v1/jobs body; a spec enumerating thousands
// of axis values fits comfortably in 1 MiB. Distributed workers apply the
// same cap when they fetch a campaign's spec back from the coordinator.
const MaxSpecBytes = 1 << 20

// DecodeSpec strictly parses one JSON spec from r: unknown fields and
// trailing non-whitespace are errors, so a typoed axis name cannot
// silently submit the default campaign. Distributed workers re-decode
// the coordinator's spec through this same gate, so both ends of the
// fleet agree on what a valid spec is.
func DecodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return Spec{}, fmt.Errorf("trailing data after spec")
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
