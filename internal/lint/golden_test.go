package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current analyzer output")

// shared is the test binary's one loader over the enclosing module.
var shared struct {
	once   sync.Once
	loader *Loader
	err    error
}

// repoLoader returns the loader every read-only load of this repository
// shares. A Loader memoizes by import path, so the standard library, the
// module and the fixtures are parsed and type-checked from source once
// per test binary rather than once per test. Tests run sequentially
// (none calls t.Parallel), which the Loader requires.
func repoLoader(t *testing.T) *Loader {
	t.Helper()
	shared.once.Do(func() {
		root, err := FindModuleRoot(".")
		if err == nil {
			shared.loader, err = NewLoader(root)
		}
		shared.err = err
	})
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	return shared.loader
}

// moduleLoader returns a loader for the temp module at root. It shares
// repoLoader's FileSet and standard-library importer, so every temp
// module's imports of the standard library resolve to packages
// type-checked once per test binary.
func moduleLoader(t *testing.T, root string) *Loader {
	t.Helper()
	repo := repoLoader(t)
	l, err := newLoader(root, repo.fset, repo.std)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFixtureGoldens pins every analyzer's diagnostics over its fixture
// package under testdata/src. One golden file per fixture directory;
// regenerate deliberately with:
//
//	go test -run TestFixtureGoldens -update ./internal/lint
func TestFixtureGoldens(t *testing.T) {
	ents, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader := repoLoader(t)
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			pkgs, err := loader.Load("internal/lint/testdata/src/" + name + "/...")
			if err != nil {
				t.Fatal(err)
			}
			diags := Run(pkgs, All(), 0)
			if len(diags) == 0 {
				t.Errorf("fixture %s produced no findings — every fixture must trip its analyzer", name)
			}
			var buf bytes.Buffer
			if err := WriteText(&buf, diags); err != nil {
				t.Fatal(err)
			}

			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d findings)", golden, len(diags))
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test -run TestFixtureGoldens -update ./internal/lint` to create it)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("diagnostics drifted from %s.\n--- got ---\n%s--- want ---\n%s", golden, buf.String(), want)
			}
		})
	}
}

// TestAnalyzerCatalogMatchesFixtures ties the fixture tree to the
// registry: every analyzer has a fixture package and a golden, and every
// fixture package and golden (apart from the SARIF rendering golden and
// the -fix fixtures) names a registered analyzer, so retiring a check
// cannot leave its fixtures behind.
func TestAnalyzerCatalogMatchesFixtures(t *testing.T) {
	registered := make(map[string]bool)
	for _, a := range All() {
		registered[a.Name] = true
		if _, err := os.Stat(filepath.Join("testdata", "src", a.Name)); err != nil {
			t.Errorf("analyzer %s has no fixture package: %v", a.Name, err)
		}
		if _, err := os.Stat(filepath.Join("testdata", a.Name+".golden")); err != nil {
			t.Errorf("analyzer %s has no golden: %v", a.Name, err)
		}
	}
	srcs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range srcs {
		if !registered[e.Name()] {
			t.Errorf("fixture testdata/src/%s names no registered analyzer", e.Name())
		}
	}
	ents, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		if name == "src" || name == "fix" || name == "sarif.golden" {
			continue
		}
		check, ok := strings.CutSuffix(name, ".golden")
		if !ok || e.IsDir() || !registered[check] {
			t.Errorf("testdata/%s names no registered analyzer", name)
		}
	}
}

// TestSelfLint asserts the repository itself is clean: every invariant
// the analyzers encode either holds or carries a reasoned suppression.
// This is the test-suite twin of the CI `areslint ./...` step.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository from source")
	}
	loader := repoLoader(t)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(pkgs, All(), 0) {
		t.Errorf("%s", d)
	}
}

// TestRunDeterministicAcrossWorkers pins the framework to the repo's own
// contract: analysis output is bit-identical at any worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	loader := repoLoader(t)
	pkgs, err := loader.Load("internal/lint/testdata/src/...")
	if err != nil {
		t.Fatal(err)
	}
	base := Run(pkgs, All(), 1)
	for _, workers := range []int{2, 8} {
		got := Run(pkgs, All(), workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d findings, want %d", workers, len(got), len(base))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], base[i]) {
				t.Errorf("workers=%d: finding %d = %+v, want %+v", workers, i, got[i], base[i])
			}
		}
	}
}
