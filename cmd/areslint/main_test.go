package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// runCLI invokes run() and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestFixturesExitNonZero(t *testing.T) {
	for _, dir := range []string{
		"internal/lint/testdata/src/ctxflow",
		"internal/lint/testdata/src/dettaint/...",
		"internal/lint/testdata/src/errclose",
		"internal/lint/testdata/src/fpreassoc/...",
		"internal/lint/testdata/src/goleak",
		"internal/lint/testdata/src/metricname",
		"internal/lint/testdata/src/parbudget",
		"internal/lint/testdata/src/seedarith",
		"internal/lint/testdata/src/wirestrict",
	} {
		t.Run(dir, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, dir)
			if code != 1 {
				t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if !strings.Contains(stderr, "finding(s)") {
				t.Errorf("stderr missing summary line: %q", stderr)
			}
		})
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, stdout, stderr := runCLI(t, "internal/mathx")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run must print nothing, got %q", stdout)
	}
}

func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-json", "internal/lint/testdata/src/parbudget")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var diags []struct {
		Check   string `json:"check"`
		File    string `json:"file"`
		Line    int    `json:"line"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout)
	}
	if len(diags) == 0 || diags[0].Check != "parbudget" || diags[0].Line == 0 {
		t.Fatalf("unexpected JSON findings: %+v", diags)
	}
}

func TestChecksSubset(t *testing.T) {
	// The dettaint fixture trips only dettaint; running just seedarith
	// over it must come back clean.
	code, stdout, stderr := runCLI(t, "-checks", "seedarith", "internal/lint/testdata/src/dettaint/...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// TestChecksListEntries pins -checks parsing: empty entries are skipped
// rather than read as "no checks", repeats run once, and a list that
// names nothing is a usage error instead of a silently clean run.
func TestChecksListEntries(t *testing.T) {
	const fixture = "internal/lint/testdata/src/goleak"
	_, want, _ := runCLI(t, "-checks", "goleak", fixture)
	if want == "" {
		t.Fatal("goleak fixture produced no findings")
	}
	for _, c := range []struct {
		checks   string
		code     int
		stdout   string
		stderrIn string
	}{
		{"goleak,", 1, want, "finding(s)"},
		{",goleak", 1, want, "finding(s)"},
		{" goleak , ", 1, want, "finding(s)"},
		{"goleak,goleak", 1, want, "finding(s)"},
		{",", 2, "", "no checks selected"},
		{" , ,", 2, "", "no checks selected"},
	} {
		code, stdout, stderr := runCLI(t, "-checks", c.checks, fixture)
		if code != c.code || stdout != c.stdout || !strings.Contains(stderr, c.stderrIn) {
			t.Errorf("-checks %q: exit %d, stdout:\n%s\nstderr: %q\nwant exit %d, stdout:\n%s\nstderr containing %q",
				c.checks, code, stdout, stderr, c.code, c.stdout, c.stderrIn)
		}
	}
}

func TestUnknownCheckExitsTwo(t *testing.T) {
	code, _, stderr := runCLI(t, "-checks", "nosuch", "internal/mathx")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown check") {
		t.Errorf("stderr = %q, want unknown-check error", stderr)
	}
}

func TestNoPatternsExitsTwo(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestSARIFOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-sarif", "internal/lint/testdata/src/parbudget")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("stdout is not SARIF JSON: %v\n%s", err, stdout)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version = %q, runs = %d; want 2.1.0 with one run", log.Version, len(log.Runs))
	}
	if len(log.Runs[0].Results) == 0 || log.Runs[0].Results[0].RuleID != "parbudget" {
		t.Fatalf("unexpected SARIF results: %+v", log.Runs[0].Results)
	}
}

func TestMutuallyExclusiveFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-json", "-sarif", "internal/mathx"},
		{"-fix", "-diff", "internal/mathx"},
	} {
		if code, _, stderr := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit = %d, want 2 (stderr %q)", args, code, stderr)
		}
	}
}

func TestDiffPreviewsWithoutWriting(t *testing.T) {
	fixture := "internal/lint/testdata/src/seedarith"
	abs := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "seedarith")
	before := readTree(t, abs)

	code, stdout, stderr := runCLI(t, "-diff", fixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "mathx.DeriveSeed") {
		t.Errorf("diff output missing the seedarith rewrite:\n%s", stdout)
	}
	if !strings.Contains(stderr, "previewed") {
		t.Errorf("stderr missing preview summary: %q", stderr)
	}
	if after := readTree(t, abs); !reflect.DeepEqual(before, after) {
		t.Error("-diff modified fixture sources on disk")
	}
}

// readTree snapshots every file under dir for a before/after comparison.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		tree[path] = string(data)
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", dir, err)
	}
	return tree
}

func TestListChecks(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{
		"ctxflow", "dettaint", "errclose", "fpreassoc", "goleak",
		"metricname", "parbudget", "seedarith", "wirestrict",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout)
		}
	}
}
