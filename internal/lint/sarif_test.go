package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteSARIFGolden pins the SARIF rendering of a fixed report.
// Regenerate deliberately with:
//
//	go test -run TestWriteSARIFGolden -update ./internal/lint
func TestWriteSARIFGolden(t *testing.T) {
	diags := []Diagnostic{
		{Check: "dettaint", File: "internal/stats/boot.go", Line: 12, Col: 9,
			Message: "time.Now() in deterministic scope"},
		{Check: "wirestrict", File: "cmd/aresd/main.go", Line: 40, Col: 2,
			Message: "JSON decode on a wire boundary without a size cap"},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, diags, All()); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "sarif.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestWriteSARIFGolden -update` from internal/lint to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("SARIF output drifted from %s.\n--- got ---\n%s--- want ---\n%s", golden, buf.String(), want)
	}
}

// TestWriteSARIFEmptyReport checks the zero-findings document is still a
// valid single-run log (required for code-scanning uploads of clean runs).
func TestWriteSARIFEmptyReport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, nil, All()); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []json.RawMessage `json:"results"`
			Tool    struct {
				Driver struct {
					Name  string            `json:"name"`
					Rules []json.RawMessage `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("want one SARIF 2.1.0 run, got version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Results == nil || len(run.Results) != 0 {
		t.Errorf("clean run must carry an empty (non-null) results array: %v", run.Results)
	}
	// Every analyzer plus the reserved marker-diagnostics rule.
	if run.Tool.Driver.Name != "areslint" || len(run.Tool.Driver.Rules) != len(All())+1 {
		t.Errorf("driver = %q with %d rules, want areslint with %d", run.Tool.Driver.Name, len(run.Tool.Driver.Rules), len(All())+1)
	}
}
