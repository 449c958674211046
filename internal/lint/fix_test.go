package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mathxStub gives throwaway modules a DeriveSeed for the seedarith fix
// to target (and for the rewritten source to compile against).
const mathxStub = `package mathx

// DeriveSeed mixes a base seed with a stream index.
func DeriveSeed(base, stream int64) int64 {
	return base ^ (stream * 0x9e3779b9)
}
`

// fixCase is one fixable check exercised end to end: lint a temp module,
// plan the suggested fixes, pin the rewritten file against a golden.
type fixCase struct {
	check   string
	files   map[string]string
	pattern string
	target  string // display path of the file the fix rewrites
}

func fixCases() []fixCase {
	return []fixCase{
		{
			check: "seedarith",
			files: map[string]string{
				"internal/mathx/seed.go": mathxStub,
				"core/core.go": `package core

import (
	"fmt"
)

func stream(seed int64, i int) int64 {
	s := seed + int64(i)
	fmt.Println(s)
	return s
}
`,
			},
			pattern: "core",
			target:  "core/core.go",
		},
		{
			check: "errclose",
			files: map[string]string{
				"core/core.go": `package core

import "os"

func dump(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	f.Close()
	return err
}
`,
			},
			pattern: "core",
			target:  "core/core.go",
		},
		{
			check: "wirestrict",
			files: map[string]string{
				"srv/srv.go": `package srv

import (
	"encoding/json"
	"net/http"
)

type spec struct{ Name string }

func handle(w http.ResponseWriter, r *http.Request) {
	var s spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec2 := json.NewDecoder(r.Body)
	if err := dec.Decode(&s); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if dec.More() {
		http.Error(w, "trailing data", http.StatusBadRequest)
		return
	}
	if err := dec2.Decode(&s); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}
`,
			},
			pattern: "srv",
			target:  "srv/srv.go",
		},
	}
}

// planModule lints a temp module and plans its suggested fixes.
func planModule(t *testing.T, root string, patterns ...string) (*FixPlan, []Diagnostic) {
	t.Helper()
	pkgs, err := moduleLoader(t, root).Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, All(), 0)
	plan, err := PlanFixes(diags, sourcesOf(pkgs))
	if err != nil {
		t.Fatal(err)
	}
	return plan, diags
}

// TestFixGoldens pins the rewritten source of every fixable check
// against a before/after golden. Regenerate deliberately with:
//
//	go test -run TestFixGoldens -update ./internal/lint
func TestFixGoldens(t *testing.T) {
	for _, c := range fixCases() {
		t.Run(c.check, func(t *testing.T) {
			root := writeModule(t, c.files)
			plan, diags := planModule(t, root, c.pattern)
			if plan.Applied == 0 {
				t.Fatalf("no fixes planned; diagnostics: %v", diags)
			}
			if len(plan.Skipped) != 0 {
				t.Fatalf("unexpected skipped fixes: %v", plan.Skipped)
			}
			got, ok := plan.Files[c.target]
			if !ok {
				t.Fatalf("plan did not rewrite %s (files: %v)", c.target, plan.Files)
			}

			golden := filepath.Join("testdata", "fix", c.check+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", golden)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test -run TestFixGoldens -update` from internal/lint to create it)", err)
			}
			if string(got) != string(want) {
				t.Errorf("rewritten source drifted from %s.\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}

			// The diff preview must describe exactly this rewrite.
			diff := plan.Diff()
			if !strings.Contains(diff, "--- a/"+c.target) || !strings.Contains(diff, "+++ b/"+c.target) {
				t.Errorf("Diff() missing file header for %s:\n%s", c.target, diff)
			}
		})
	}
}

// TestFixIdempotence applies each plan to disk and verifies a second
// lint-plan-apply pass is a no-op: fixing twice equals fixing once.
func TestFixIdempotence(t *testing.T) {
	for _, c := range fixCases() {
		t.Run(c.check, func(t *testing.T) {
			root := writeModule(t, c.files)
			plan, _ := planModule(t, root, c.pattern)
			if plan.Applied == 0 {
				t.Fatal("first pass planned no fixes")
			}
			if err := plan.Write(root); err != nil {
				t.Fatal(err)
			}
			after1, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(c.target)))
			if err != nil {
				t.Fatal(err)
			}

			plan2, _ := planModule(t, root, c.pattern)
			if plan2.Applied != 0 || len(plan2.Files) != 0 {
				t.Fatalf("second pass planned %d fix(es) over %d file(s); fixes must converge after one round",
					plan2.Applied, len(plan2.Files))
			}
			if err := plan2.Write(root); err != nil {
				t.Fatal(err)
			}
			after2, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(c.target)))
			if err != nil {
				t.Fatal(err)
			}
			if string(after1) != string(after2) {
				t.Error("applying fixes twice changed the file a second time")
			}
		})
	}
}

// TestSeedArithFixRemovesFinding closes the loop: after -fix the
// analyzer that suggested the rewrite no longer fires.
func TestSeedArithFixRemovesFinding(t *testing.T) {
	c := fixCases()[0]
	root := writeModule(t, c.files)
	plan, before := planModule(t, root, c.pattern)
	if !strings.Contains(strings.Join(checksOf(before), ","), "seedarith") {
		t.Fatalf("fixture did not trip seedarith: %v", before)
	}
	if err := plan.Write(root); err != nil {
		t.Fatal(err)
	}
	_, after := planModule(t, root, c.pattern)
	for _, d := range after {
		if d.Check == "seedarith" {
			t.Errorf("seedarith still fires after its fix: %s", d)
		}
	}
}

func TestPlanFixesOverlapRejected(t *testing.T) {
	src := map[string][]byte{"a.go": []byte("0123456789")}
	diags := []Diagnostic{
		{Check: "x", File: "a.go", Line: 1, Fix: &SuggestedFix{
			Message: "first", Edits: []TextEdit{{File: "a.go", Start: 2, End: 6, NewText: "AAAA"}},
		}},
		{Check: "x", File: "a.go", Line: 2, Fix: &SuggestedFix{
			Message: "second overlaps first", Edits: []TextEdit{{File: "a.go", Start: 4, End: 8, NewText: "BBBB"}},
		}},
	}
	plan, err := PlanFixes(diags, src)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Applied != 1 || len(plan.Skipped) != 1 {
		t.Fatalf("applied = %d, skipped = %d; want 1 and 1", plan.Applied, len(plan.Skipped))
	}
	if got := string(plan.Files["a.go"]); got != "01AAAA6789" {
		t.Errorf("rewritten = %q, want only the first edit applied", got)
	}
}

func TestPlanFixesMultiEditAllOrNothing(t *testing.T) {
	// A fix whose second edit conflicts must contribute nothing, even
	// though its first edit was conflict-free.
	src := map[string][]byte{"a.go": []byte("0123456789")}
	diags := []Diagnostic{
		{Check: "x", File: "a.go", Line: 1, Fix: &SuggestedFix{
			Message: "claims [2,4)", Edits: []TextEdit{{File: "a.go", Start: 2, End: 4, NewText: "XX"}},
		}},
		{Check: "x", File: "a.go", Line: 2, Fix: &SuggestedFix{
			Message: "clean edit + conflicting edit", Edits: []TextEdit{
				{File: "a.go", Start: 8, End: 9, NewText: "Y"},
				{File: "a.go", Start: 3, End: 5, NewText: "ZZ"},
			},
		}},
	}
	plan, err := PlanFixes(diags, src)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Applied != 1 || len(plan.Skipped) != 1 {
		t.Fatalf("applied = %d, skipped = %d; want 1 and 1", plan.Applied, len(plan.Skipped))
	}
	if got := string(plan.Files["a.go"]); got != "01XX456789" {
		t.Errorf("rewritten = %q; the skipped fix must leave no partial edit", got)
	}
}

func TestPlanFixesIdenticalEditsCollapse(t *testing.T) {
	src := map[string][]byte{"a.go": []byte("0123456789")}
	edit := TextEdit{File: "a.go", Start: 4, End: 4, NewText: "!"}
	diags := []Diagnostic{
		{Check: "x", File: "a.go", Line: 1, Fix: &SuggestedFix{Message: "m", Edits: []TextEdit{edit}}},
		{Check: "x", File: "a.go", Line: 2, Fix: &SuggestedFix{Message: "m", Edits: []TextEdit{edit}}},
	}
	plan, err := PlanFixes(diags, src)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Applied != 2 || len(plan.Skipped) != 0 {
		t.Fatalf("applied = %d, skipped = %d; identical edits collapse without conflict", plan.Applied, len(plan.Skipped))
	}
	if got := string(plan.Files["a.go"]); got != "0123!456789" {
		t.Errorf("rewritten = %q, want the insert applied exactly once", got)
	}
}

func TestPlanFixesOutOfBoundsIsError(t *testing.T) {
	src := map[string][]byte{"a.go": []byte("short")}
	diags := []Diagnostic{{Check: "x", File: "a.go", Fix: &SuggestedFix{
		Message: "stale", Edits: []TextEdit{{File: "a.go", Start: 3, End: 99, NewText: "?"}},
	}}}
	if _, err := PlanFixes(diags, src); err == nil {
		t.Fatal("stale out-of-bounds edit must fail the plan, not be skipped")
	}
}

func TestFixPlanWriteAbortsOnMissingTarget(t *testing.T) {
	// Files are written in sorted order; if an early target vanished
	// since analysis, Write must error out before touching later files.
	root := t.TempDir()
	for _, name := range []string{"a.go", "b.go"} {
		if err := os.WriteFile(filepath.Join(root, name), []byte("original\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plan := &FixPlan{Files: map[string][]byte{
		"a.go": []byte("rewritten a\n"),
		"b.go": []byte("rewritten b\n"),
	}}
	if err := os.Remove(filepath.Join(root, "a.go")); err != nil {
		t.Fatal(err)
	}
	if err := plan.Write(root); err == nil {
		t.Fatal("Write must fail when a fix target vanished")
	}
	got, err := os.ReadFile(filepath.Join(root, "b.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original\n" {
		t.Errorf("b.go = %q; a failed Write must not leave later files rewritten", got)
	}
}

// sourcesOf merges the per-package source maps of pkgs into the single
// display-path → bytes map PlanFixes consumes.
func sourcesOf(pkgs []*Package) map[string][]byte {
	src := make(map[string][]byte)
	for _, pkg := range pkgs {
		for name, data := range pkg.Src {
			src[name] = data
		}
	}
	return src
}
