// Command areslint runs the repository's project-specific static
// analyzers (internal/lint) over the given packages and exits non-zero
// when any invariant is violated:
//
//	go run ./cmd/areslint ./...
//	go run ./cmd/areslint -json ./internal/stats ./internal/core
//	go run ./cmd/areslint -checks dettaint,seedarith ./...
//	go run ./cmd/areslint -diff ./...            # preview suggested fixes
//	go run ./cmd/areslint -fix ./...             # apply suggested fixes
//	go run ./cmd/areslint -sarif ./... > lint.sarif
//
// Patterns are directories relative to the module root (or absolute);
// `dir/...` walks a subtree, skipping testdata and vendor. Suppress a
// finding in place with `//areslint:ignore <check> <reason>` on the
// offending line or the line above.
//
// -checks takes a comma-separated subset of -list; empty entries are
// ignored and repeats collapse, and a selection that names no check is
// a usage error. -fix applies every non-conflicting suggested fix
// atomically (overlapping fixes are skipped and reported); -diff
// previews the same edits as a unified diff without writing. Exit
// status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/ares-cps/ares/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("areslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0 (code-scanning upload format)")
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	fix := fs.Bool("fix", false, "apply suggested fixes (atomically, skipping conflicts)")
	diff := fs.Bool("diff", false, "print suggested fixes as a unified diff instead of findings")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: areslint [-json|-sarif] [-checks c1,c2] [-fix|-diff] [-list] packages...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "areslint: -json and -sarif are mutually exclusive")
		return 2
	}
	if *fix && *diff {
		fmt.Fprintln(stderr, "areslint: -fix and -diff are mutually exclusive")
		return 2
	}

	analyzers := lint.All()
	if *checks != "" {
		var bad string
		analyzers, bad = lint.ByName(splitList(*checks))
		if bad != "" {
			fmt.Fprintf(stderr, "areslint: unknown check %q (see -list)\n", bad)
			return 2
		}
		if len(analyzers) == 0 {
			fmt.Fprintln(stderr, "areslint: no checks selected (see -list)")
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "areslint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "areslint:", err)
		return 2
	}

	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "areslint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "areslint:", err)
		return 2
	}
	diags := lint.Run(pkgs, analyzers, 0)

	if *fix || *diff {
		return runFixes(diags, root, *fix, stdout, stderr)
	}

	switch {
	case *jsonOut:
		err = lint.WriteJSON(stdout, diags)
	case *sarifOut:
		err = lint.WriteSARIF(stdout, diags, analyzers)
	default:
		err = lint.WriteText(stdout, diags)
	}
	if err != nil {
		fmt.Fprintln(stderr, "areslint:", err)
		return 2
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "areslint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runFixes plans the report's suggested fixes against the on-disk
// sources, then either applies them atomically (-fix) or prints the
// unified diff (-diff).
func runFixes(diags []lint.Diagnostic, root string, apply bool, stdout, stderr io.Writer) int {
	src := make(map[string][]byte)
	for _, d := range diags {
		if d.Fix == nil {
			continue
		}
		for _, e := range d.Fix.Edits {
			if _, ok := src[e.File]; ok {
				continue
			}
			path := e.File
			if !filepath.IsAbs(path) {
				path = filepath.Join(root, filepath.FromSlash(e.File))
			}
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(stderr, "areslint:", err)
				return 2
			}
			src[e.File] = data
		}
	}
	plan, err := lint.PlanFixes(diags, src)
	if err != nil {
		fmt.Fprintln(stderr, "areslint:", err)
		return 2
	}
	if !apply {
		fmt.Fprint(stdout, plan.Diff())
	} else if err := plan.Write(root); err != nil {
		fmt.Fprintln(stderr, "areslint:", err)
		return 2
	}
	for _, d := range plan.Skipped {
		fmt.Fprintf(stderr, "areslint: fix skipped (conflicts with an earlier fix): %s\n", d)
	}
	verb := "previewed"
	if apply {
		verb = "applied"
	}
	fmt.Fprintf(stderr, "areslint: %s %d fix(es), %d skipped, %d finding(s) total\n",
		verb, plan.Applied, len(plan.Skipped), len(diags))
	if len(diags) > 0 {
		return 1
	}
	return 0
}
