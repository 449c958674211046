package cpv

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ares-cps/ares/internal/campaign"
)

var update = flag.Bool("update", false, "rewrite golden files with current compiler output")

func TestBuiltinCatalogChecks(t *testing.T) {
	recs := Catalog()
	if len(recs) == 0 {
		t.Fatal("empty built-in catalog")
	}
	seen := make(map[string]bool)
	for _, r := range recs {
		if err := Check(r); err != nil {
			t.Errorf("built-in %s fails check: %v", r.ID, err)
		}
		if seen[r.ID] {
			t.Errorf("duplicate built-in id %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestCompileCanonical(t *testing.T) {
	recs := Catalog()
	opts := Options{Seed: 7, Episodes: 2, MaxSteps: 10}
	a, err := compile(opts, recs...)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed input order must compile to the identical spec.
	rev := make([]Record, len(recs))
	for i, r := range recs {
		rev[len(recs)-1-i] = r
	}
	b, err := compile(opts, rev...)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Errorf("compile is order-sensitive:\n%s\nvs\n%s", aj, bj)
	}
	// Normalization must be a fixed point: the compiled spec re-normalized
	// is itself (the daemon hashes the normalized form).
	cj, _ := json.Marshal(a.Normalized())
	if !bytes.Equal(aj, cj) {
		t.Errorf("compiled spec is not normalization-stable:\n%s\nvs\n%s", aj, cj)
	}
}

func TestCompileExpandsTaggedJobs(t *testing.T) {
	rec, ok := Get("ARES-CPV-001")
	if !ok {
		t.Fatal("ARES-CPV-001 missing")
	}
	spec, err := compile(Options{Seed: 1}, rec)
	if err != nil {
		t.Fatal(err)
	}
	jobs := spec.Expand()
	if len(jobs) == 0 {
		t.Fatal("no jobs expanded")
	}
	for _, j := range jobs {
		if j.CPV != "ARES-CPV-001" {
			t.Errorf("job %s: CPV = %q", j.Key, j.CPV)
		}
		if !strings.HasPrefix(j.Key, "ARES-CPV-001/") {
			t.Errorf("job key %q lacks the CPV prefix", j.Key)
		}
	}
}

func TestCompileRejects(t *testing.T) {
	base, _ := Get("ARES-CPV-001")
	cases := []struct {
		name   string
		mutate func(*Record)
	}{
		{"unknown variable", func(r *Record) { r.Variables = []string{"NOPE.X"} }},
		{"unknown component", func(r *Record) { r.EntryComponent = "mainframe" }},
		{"unwritable from entry", func(r *Record) { r.EntryComponent = "drivers" }},
		{"unknown mission kind", func(r *Record) { r.Missions = []string{"spiral:10"} }},
		{"non-finite mission size", func(r *Record) { r.Missions = []string{"line:NaN"} }},
		{"unknown defense", func(r *Record) { r.Defenses = []string{"prayer"} }},
		{"unknown attack", func(r *Record) { r.AttackVector = "psychic" }},
		{"stealthy crash", func(r *Record) { r.AttackVector = "stealthy"; r.Goal = "crash" }},
		{"slash in id", func(r *Record) { r.ID = "a/b" }},
		{"empty name", func(r *Record) { r.Name = " " }},
		{"no variables", func(r *Record) { r.Variables = nil }},
	}
	for _, tc := range cases {
		r := base
		tc.mutate(&r)
		if _, err := compile(Options{}, r); err == nil {
			t.Errorf("%s: compile accepted", tc.name)
		}
	}
	if _, err := compile(Options{}, base, base); err == nil {
		t.Error("duplicate ids accepted")
	}
	if _, err := compile(Options{}); err == nil {
		t.Error("empty record set accepted")
	}
	if _, err := CompileIDs(Options{}, "ARES-CPV-999"); err == nil {
		t.Error("unknown catalog id accepted")
	}
}

func TestParseRecordsStrict(t *testing.T) {
	good := `[{"id":"X-1","name":"x","entry_component":"stabilizer","attack_vector":"rl","goal":"deviation","variables":["PIDR.INTEG"]}]`
	recs, err := ParseRecords([]byte(good))
	if err != nil || len(recs) != 1 {
		t.Fatalf("good doc rejected: %v", err)
	}
	bad := []string{
		`{"id":"X-1"}`, // not an array
		`[{"id":"X-1","name":"x","entry_component":"stabilizer","attack_vector":"rl","goal":"deviation","variables":["V"],"bonus":1}]`, // unknown field
		good + `[]`, // trailing data
		good + `]`,  // stray closing bracket
		good + `}`,  // stray closing brace
		good + ` x`, // trailing garbage
		good + `{`,  // truncated second value
		`[{"id":"X-1","name":"x","entry_component":"stabilizer","attack_vector":"rl","goal":"deviation","variables":[]}]`, // no variables
	}
	for i, doc := range bad {
		if _, err := ParseRecords([]byte(doc)); err == nil {
			t.Errorf("bad doc %d accepted", i)
		}
	}
}

// TestCatalogGolden pins every built-in record's compiled Spec (and the
// whole-catalog compile) at a fixed seed. Refresh intentionally with
//
//	go test ./internal/cpv -run TestCatalogGolden -update
func TestCatalogGolden(t *testing.T) {
	var buf bytes.Buffer
	opts := Options{Seed: 42, Episodes: 2, MaxSteps: 10}
	for _, r := range Catalog() {
		spec, err := compile(opts, r)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		js, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "=== %s\n%s\n", r.ID, js)
	}
	all, err := compile(opts, Catalog()...)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "=== catalog\n%s\n", js)

	path := filepath.Join("testdata", "cpv_catalog.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := campaign.WriteFileAtomic(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("compiled catalog drifted from golden; run with -update if intentional\n--- got ---\n%s", buf.String())
	}
}
