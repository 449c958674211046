package cpv

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzCPVRecord hardens the catalog intake: arbitrary bytes must either
// parse into validated records or fail with an error — never panic — and
// whatever parses must compile canonically: the same record set, in any
// order, yields byte-identical normalized Spec JSON (the daemon hashes
// that form for content-addressed identity).
func FuzzCPVRecord(f *testing.F) {
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"id":"X-1","name":"x","entry_component":"stabilizer","attack_vector":"rl","goal":"deviation","variables":["PIDR.INTEG"]}]`))
	f.Add([]byte(`[{"id":"X-1","name":"x","entry_component":"stabilizer","attack_vector":"stealthy","goal":"deviation","variables":["CMD.Roll"],"missions":["line:NaN"]}]`))
	f.Add([]byte(`[{"id":"a/b","name":"x","entry_component":"stabilizer","attack_vector":"rl","goal":"crash","variables":["CMD.Roll"],"max_action":0.6}]`))
	f.Add([]byte(`{"id":"X-1"}`))
	f.Add([]byte(`[{"id":"X-1","unknown_field":true}]`))
	if js, err := json.Marshal(Catalog()); err == nil {
		f.Add(js)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ParseRecords(data)
		if err != nil {
			return
		}
		for _, r := range recs {
			// ParseRecords promised static validity.
			if err := r.Validate(); err != nil {
				t.Fatalf("parsed record fails validation: %v", err)
			}
		}
		if len(recs) == 0 {
			return
		}
		spec, err := compile(Options{Seed: 1}, recs...)
		if err != nil {
			return // semantic rejection (unknown variable, duplicate id, …) is fine
		}
		a, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("compiled spec does not marshal: %v", err)
		}
		// Canonical: reversed input order compiles to identical bytes.
		rev := make([]Record, len(recs))
		for i, r := range recs {
			rev[len(recs)-1-i] = r
		}
		spec2, err := compile(Options{Seed: 1}, rev...)
		if err != nil {
			t.Fatalf("reordered set failed to compile: %v", err)
		}
		b, err := json.Marshal(spec2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("compile is order-sensitive:\n%s\nvs\n%s", a, b)
		}
		// Idempotent: re-normalizing the compiled spec is a no-op.
		c, err := json.Marshal(spec.Normalized())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, c) {
			t.Fatalf("compiled spec not normalization-stable:\n%s\nvs\n%s", a, c)
		}
	})
}
