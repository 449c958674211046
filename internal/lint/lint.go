// Package lint is the repository's static-analysis framework: a small
// go/ast + go/types analyzer harness (stdlib only — go/parser, go/types
// and a source-mode importer, no external modules) plus the project
// analyzers that encode ARES's determinism, concurrency and
// error-handling invariants.
//
// The headline guarantee of this codebase — Algorithm 1 prunes,
// Gram-kernel model selection and campaign sweeps are bit-identical at
// any worker count — is a contract that equivalence tests can only probe
// after the fact. A stray time.Now() seed, an unseeded global math/rand
// call or a map-range feeding ordered output silently breaks
// reproducibility of the paper's tables and figures; the analyzers here
// catch those defect classes before anything runs. `cmd/areslint` is the
// CLI; CI runs it next to vet and the race detector.
//
// Findings are suppressed in place with a reasoned marker on the
// offending line or the line above:
//
//	//areslint:ignore <check> <reason>
//
// A marker without a reason does not suppress — it is itself reported —
// so every silenced finding documents why it is safe.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
	"strings"

	"github.com/ares-cps/ares/internal/par"
)

// An Analyzer is one named check. Run inspects a type-checked package
// through the Pass and reports findings; it must not retain the Pass.
type Analyzer struct {
	// Name identifies the check in output and in ignore markers
	// (lowercase, no spaces).
	Name string
	// Doc is a one-line description shown by `areslint -list`.
	Doc string
	// Run performs the check.
	Run func(*Pass)
}

// A Pass holds one analyzer's view of one loaded package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkg is the parsed, type-checked package under analysis.
	Pkg *Package
	// Prog is the interprocedural view (call graph + propagated
	// function facts) over the analysis targets and their module-internal
	// dependency closure. Read-only and shared across passes.
	Prog *Program

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportFix(pos, nil, fmt.Sprintf(format, args...))
}

// ReportFix records a finding at pos carrying an optional suggested fix.
func (p *Pass) ReportFix(pos token.Pos, fix *SuggestedFix, message string) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		Check:   p.Analyzer.Name,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: message,
		Fix:     fix,
	})
}

// A TextEdit replaces the byte range [Start, End) of File (module-root-
// relative, as diagnostics print it) with NewText. Start == End inserts.
type TextEdit struct {
	File    string `json:"file"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
	NewText string `json:"new_text"`
}

// A SuggestedFix is a mechanical remediation for one diagnostic:
// non-overlapping byte edits `areslint -fix` can apply atomically (and
// `-diff` can preview).
type SuggestedFix struct {
	Message string     `json:"message"`
	Edits   []TextEdit `json:"edits"`
}

// A Diagnostic is one finding, positioned so editors can jump to it.
type Diagnostic struct {
	Check   string        `json:"check"`
	File    string        `json:"file"`
	Line    int           `json:"line"`
	Col     int           `json:"col"`
	Message string        `json:"message"`
	Fix     *SuggestedFix `json:"fix,omitempty"`
}

// String renders the canonical single-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// ignoreMarker is the comment prefix that suppresses a finding.
const ignoreMarker = "//areslint:ignore"

// ignore is one parsed suppression comment.
type ignore struct {
	check  string
	reason string
	line   int
	file   string
	pos    token.Pos
}

// parseIgnores extracts every areslint:ignore marker from a package's
// comments. Malformed markers (missing check name or reason) are returned
// separately so the runner can report them instead of silently honoring
// them.
func parseIgnores(pkg *Package) (ok []ignore, bad []ignore) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreMarker) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignoreMarker)
				position := pkg.Fset.Position(c.Pos())
				ig := ignore{line: position.Line, file: position.Filename, pos: c.Pos()}
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					ig.check = fields[0]
				}
				if len(fields) >= 2 {
					ig.reason = strings.Join(fields[1:], " ")
				}
				if ig.check == "" || ig.reason == "" {
					bad = append(bad, ig)
					continue
				}
				ok = append(ok, ig)
			}
		}
	}
	return ok, bad
}

// suppressed reports whether d is covered by a marker on its own line or
// the line directly above (a trailing comment or a standalone comment
// preceding the statement).
func suppressed(d Diagnostic, igs []ignore) bool {
	for _, ig := range igs {
		if ig.file != d.File || ig.check != d.Check {
			continue
		}
		if ig.line == d.Line || ig.line == d.Line-1 {
			return true
		}
	}
	return false
}

// Run executes every analyzer over every package, up to `workers`
// packages concurrently (workers <= 0 uses the process budget). Each
// package's findings land in its own slot, so the returned slice is
// identical at any worker count: sorted by file, line, column, check,
// message. Suppressed findings are dropped; malformed ignore markers are
// reported under the reserved check name "areslint".
func Run(pkgs []*Package, analyzers []*Analyzer, workers int) []Diagnostic {
	// The interprocedural fact layer is computed once, sequentially, over
	// the targets and their module-internal dependency closure; the
	// resulting Program is frozen and shared read-only by the parallel
	// per-package passes.
	prog := newProgram(pkgs)
	perPkg := make([][]Diagnostic, len(pkgs))
	par.Do(workers, len(pkgs), func(i int) {
		perPkg[i] = runPackage(pkgs[i], analyzers, prog)
	})
	var all []Diagnostic
	for _, ds := range perPkg {
		all = append(all, ds...)
	}
	sortDiagnostics(all)
	return all
}

// runPackage applies all analyzers to one package and filters
// suppressions.
func runPackage(pkg *Package, analyzers []*Analyzer, prog *Program) []Diagnostic {
	igs, bad := parseIgnores(pkg)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Pkg:      pkg,
			Prog:     prog,
			report: func(d Diagnostic) {
				if !suppressed(d, igs) {
					diags = append(diags, d)
				}
			},
		}
		a.Run(pass)
	}
	// Marker names validate against the full registry, not the active
	// subset: a dettaint marker is legitimate even when `-checks
	// seedarith` leaves dettaint switched off.
	registry := All()
	known := make(map[string]bool, len(registry))
	for _, a := range registry {
		known[a.Name] = true
	}
	for _, ig := range bad {
		position := pkg.Fset.Position(ig.pos)
		diags = append(diags, Diagnostic{
			Check: "areslint", File: position.Filename, Line: position.Line, Col: position.Column,
			Message: "malformed ignore marker: want //areslint:ignore <check> <reason>",
		})
	}
	for _, ig := range igs {
		if !known[ig.check] && ig.check != "areslint" {
			position := pkg.Fset.Position(ig.pos)
			diags = append(diags, Diagnostic{
				Check: "areslint", File: position.Filename, Line: position.Line, Col: position.Column,
				Message: fmt.Sprintf("ignore marker names unknown check %q", ig.check),
			})
		}
	}
	return diags
}

// sortDiagnostics applies the canonical report order: file, line, column,
// check, message.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// WriteText renders findings one per line in the canonical
// file:line:col: check: message form.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders findings as a JSON array (never null, so consumers
// can range without a nil check).
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}

// inspect walks every file in the pass's package in source order.
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
