package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module on disk and returns its
// root. Keys are slash-separated paths relative to the root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixture.test\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// lintModule loads the given patterns from a temp module and runs all
// analyzers.
func lintModule(t *testing.T, files map[string]string, patterns ...string) []Diagnostic {
	t.Helper()
	pkgs, err := moduleLoader(t, writeModule(t, files)).Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	return Run(pkgs, All(), 0)
}

// checksOf extracts the check names of a diagnostic list.
func checksOf(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Check)
	}
	return out
}

func TestSuppressionSameLineAndLineAbove(t *testing.T) {
	diags := lintModule(t, map[string]string{
		"stats/stats.go": `package stats

import "time"

func trailing() int64 {
	return time.Now().UnixNano() //areslint:ignore dettaint pinned by test
}

func above() int64 {
	//areslint:ignore dettaint pinned by test
	return time.Now().UnixNano()
}

func unsuppressed() int64 {
	return time.Now().UnixNano()
}
`,
	}, "stats")
	if len(diags) != 1 || diags[0].Check != "dettaint" || diags[0].Line != 15 {
		t.Fatalf("want exactly the unsuppressed finding at line 15, got %v", diags)
	}
}

func TestMalformedAndUnknownIgnoreMarkers(t *testing.T) {
	diags := lintModule(t, map[string]string{
		"stats/stats.go": `package stats

import "time"

func missingReason() int64 {
	//areslint:ignore dettaint
	return time.Now().UnixNano()
}

func unknownCheck() {
	//areslint:ignore nosuchcheck some reason
}
`,
	}, "stats")
	got := strings.Join(checksOf(diags), ",")
	// The reasonless marker must not suppress: the dettaint finding
	// survives, and both markers are reported under "areslint".
	want := map[string]int{"dettaint": 1, "areslint": 2}
	for check, n := range want {
		if c := strings.Count(got, check); c != n {
			t.Errorf("want %d %s finding(s), got %d (all: %s)", n, check, c, got)
		}
	}
}

func TestLoaderResolvesIntraModuleImports(t *testing.T) {
	diags := lintModule(t, map[string]string{
		"base/base.go": `package base

// Seeds returns a base seed.
func Seeds() int64 { return 42 }
`,
		"core/core.go": `package core

import "fixture.test/base"

func offset() int64 {
	seed := base.Seeds()
	return seed + 1
}
`,
	}, "core")
	if len(diags) != 1 || diags[0].Check != "seedarith" {
		t.Fatalf("want one seedarith finding through an intra-module import, got %v", diags)
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil diagnostics must encode as [], got %q", buf.String())
	}

	buf.Reset()
	in := []Diagnostic{{Check: "dettaint", File: "a.go", Line: 3, Col: 2, Message: "m"}}
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []Diagnostic
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}

func TestByName(t *testing.T) {
	subset, bad := ByName([]string{"dettaint", "errclose", "dettaint"})
	if bad != "" || len(subset) != 2 || subset[0].Name != "dettaint" || subset[1].Name != "errclose" {
		t.Fatalf("ByName subset = %v, %q; want dettaint, errclose with the repeat collapsed", subset, bad)
	}
	if _, bad := ByName([]string{"nosuch"}); bad != "nosuch" {
		t.Fatalf("ByName must report the unknown name, got %q", bad)
	}
}

func TestPathHasSegment(t *testing.T) {
	cases := []struct {
		path, seg string
		want      bool
	}{
		{"github.com/ares-cps/ares/internal/stats", "internal/stats", true},
		{"github.com/ares-cps/ares/internal/stats/sub", "internal/stats", true},
		{"github.com/ares-cps/ares/internal/statsx", "internal/stats", false},
		{"internal/stats", "internal/stats", true},
		{"xinternal/stats", "internal/stats", false},
	}
	for _, c := range cases {
		if got := pathHasSegment(c.path, c.seg); got != c.want {
			t.Errorf("pathHasSegment(%q, %q) = %v, want %v", c.path, c.seg, got, c.want)
		}
	}
}
