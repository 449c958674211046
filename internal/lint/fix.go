package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/ares-cps/ares/internal/campaign"
)

// This file is the suggested-fix engine behind `areslint -fix` and
// `-diff`. Analyzers attach SuggestedFix values (byte-offset TextEdits)
// to diagnostics; PlanFixes folds every fix over the original sources
// into per-file rewritten contents, and FixPlan.Write finalizes each
// file atomically (campaign.WriteFileAtomic: temp + fsync + rename), so
// an interrupted -fix never leaves a torn source file.
//
// Conflict policy: identical edits from different diagnostics collapse
// into one (two wirestrict findings on the same decoder suggest the same
// insertion); after deduplication, a fix any of whose edits overlaps an
// already-accepted edit is skipped whole — fixes apply all-or-nothing,
// and the skip is reported so the user can re-run after the first batch.
// Fixes are considered in diagnostic order (file, line, col, check,
// message), so the plan is deterministic for a given report.

// A FixPlan is the resolved outcome of applying every applicable fix in
// a report to the sources it was computed from.
type FixPlan struct {
	// Files maps each display path (as diagnostics print it) to its
	// rewritten content. Only files with at least one accepted edit
	// appear.
	Files map[string][]byte
	// Applied counts fixes folded into Files.
	Applied int
	// Skipped lists the diagnostics whose fix was rejected because an
	// edit overlapped an already-accepted one.
	Skipped []Diagnostic

	orig map[string][]byte
}

// PlanFixes resolves the fixes carried by diags against src (display
// path → original bytes, as Package.Src provides). Diagnostics without a
// fix are ignored. An edit pointing outside its file's bounds — stale
// offsets from a source changed since analysis — fails the whole plan:
// that is a caller bug, not a conflict to skip.
func PlanFixes(diags []Diagnostic, src map[string][]byte) (*FixPlan, error) {
	plan := &FixPlan{Files: make(map[string][]byte), orig: src}
	type span struct{ start, end int }
	accepted := make(map[string][]span) // file → claimed half-open ranges
	editsByFile := make(map[string][]TextEdit)
	seen := make(map[string]bool) // dedupe key → already claimed

	overlaps := func(file string, e TextEdit) bool {
		for _, s := range accepted[file] {
			// Proper range intersection; also an insert strictly inside a
			// replaced range.
			if e.Start < s.end && s.start < e.End {
				return true
			}
			// Two inserts at the same offset: application order would be
			// ambiguous, so the second is a conflict.
			if e.Start == e.End && s.start == s.end && e.Start == s.start {
				return true
			}
		}
		return false
	}

	for _, d := range diags {
		if d.Fix == nil || len(d.Fix.Edits) == 0 {
			continue
		}
		ok := true
		var fresh []TextEdit
		for _, e := range d.Fix.Edits {
			data, have := src[e.File]
			if !have {
				return nil, fmt.Errorf("lint: fix for %s edits unknown file %s", d.File, e.File)
			}
			if e.Start < 0 || e.End < e.Start || e.End > len(data) {
				return nil, fmt.Errorf("lint: fix edit out of bounds: %s [%d,%d) of %d bytes", e.File, e.Start, e.End, len(data))
			}
			key := fmt.Sprintf("%s\x00%d\x00%d\x00%s", e.File, e.Start, e.End, e.NewText)
			if seen[key] {
				continue // identical edit already claimed: collapses, no conflict
			}
			if overlaps(e.File, e) {
				ok = false
				break
			}
			fresh = append(fresh, e)
		}
		if !ok {
			plan.Skipped = append(plan.Skipped, d)
			continue
		}
		for _, e := range fresh {
			key := fmt.Sprintf("%s\x00%d\x00%d\x00%s", e.File, e.Start, e.End, e.NewText)
			seen[key] = true
			accepted[e.File] = append(accepted[e.File], span{e.Start, e.End})
			editsByFile[e.File] = append(editsByFile[e.File], e)
		}
		plan.Applied++
	}

	for file, edits := range editsByFile {
		// Apply back-to-front so earlier offsets stay valid.
		sort.Slice(edits, func(i, j int) bool { return edits[i].Start > edits[j].Start })
		out := append([]byte(nil), src[file]...)
		for _, e := range edits {
			out = append(out[:e.Start], append([]byte(e.NewText), out[e.End:]...)...)
		}
		plan.Files[file] = out
	}
	return plan, nil
}

// Write finalizes every rewritten file under root, each atomically. The
// original file's permissions are preserved; a file that vanished since
// analysis is an error before anything is written to it.
func (p *FixPlan) Write(root string) error {
	files := make([]string, 0, len(p.Files))
	for f := range p.Files {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		path := f
		if !filepath.IsAbs(path) {
			path = filepath.Join(root, filepath.FromSlash(f))
		}
		st, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("lint: fix target: %w", err)
		}
		if err := campaign.WriteFileAtomic(path, p.Files[f], st.Mode().Perm()); err != nil {
			return fmt.Errorf("lint: apply fix to %s: %w", f, err)
		}
	}
	return nil
}

// Diff renders a unified diff of the plan, file by file in sorted order —
// the `-diff` preview.
func (p *FixPlan) Diff() string {
	files := make([]string, 0, len(p.Files))
	for f := range p.Files {
		files = append(files, f)
	}
	sort.Strings(files)
	var b strings.Builder
	for _, f := range files {
		b.WriteString(unifiedDiff(f, p.orig[f], p.Files[f]))
	}
	return b.String()
}

// unifiedDiff computes a line-based unified diff (context 3) between two
// versions of one file. An O(n·m) LCS table is fine at source-file scale.
func unifiedDiff(name string, a, b []byte) string {
	if string(a) == string(b) {
		return ""
	}
	al := splitLines(string(a))
	bl := splitLines(string(b))

	// LCS lengths.
	n, m := len(al), len(bl)
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if al[i] == bl[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	// Walk the table into an op list: ' ' keep, '-' delete, '+' insert.
	type op struct {
		kind byte
		text string
	}
	var ops []op
	for i, j := 0, 0; i < n || j < m; {
		switch {
		case i < n && j < m && al[i] == bl[j]:
			ops = append(ops, op{' ', al[i]})
			i++
			j++
		case j < m && (i == n || lcs[i][j+1] >= lcs[i+1][j]):
			ops = append(ops, op{'+', bl[j]})
			j++
		default:
			ops = append(ops, op{'-', al[i]})
			i++
		}
	}

	const ctx = 3
	var out strings.Builder
	fmt.Fprintf(&out, "--- a/%s\n+++ b/%s\n", name, name)
	// Group ops into hunks with ctx lines of context.
	i := 0
	aLine, bLine := 1, 1
	for i < len(ops) {
		if ops[i].kind == ' ' {
			aLine++
			bLine++
			i++
			continue
		}
		// Hunk start: back up ctx context lines.
		start := i
		lead := 0
		for start > 0 && lead < ctx && ops[start-1].kind == ' ' {
			start--
			lead++
		}
		hunkA, hunkB := aLine-lead, bLine-lead
		// Extend through changes, closing after ctx*2 unbroken keeps.
		end := i
		keeps := 0
		for end < len(ops) {
			if ops[end].kind == ' ' {
				keeps++
				if keeps > ctx*2 {
					break
				}
			} else {
				keeps = 0
			}
			end++
		}
		// Trim trailing context beyond ctx.
		trail := 0
		for end > i && ops[end-1].kind == ' ' {
			trail++
			end--
		}
		if trail > ctx {
			trail = ctx
		}
		end += trail

		var aCount, bCount int
		var body strings.Builder
		for _, o := range ops[start:end] {
			body.WriteByte(o.kind)
			body.WriteString(o.text)
			body.WriteByte('\n')
			switch o.kind {
			case ' ':
				aCount++
				bCount++
			case '-':
				aCount++
			case '+':
				bCount++
			}
		}
		fmt.Fprintf(&out, "@@ -%d,%d +%d,%d @@\n%s", hunkA, aCount, hunkB, bCount, body.String())
		for _, o := range ops[i:end] {
			switch o.kind {
			case ' ':
				aLine++
				bLine++
			case '-':
				aLine++
			case '+':
				bLine++
			}
		}
		i = end
	}
	return out.String()
}

// splitLines splits without losing a trailing newline-less line.
func splitLines(s string) []string {
	s = strings.TrimSuffix(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}
