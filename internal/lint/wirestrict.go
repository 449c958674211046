package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// wireStrict enforces the repository's strict-decode convention on wire
// boundaries, interprocedurally. internal/dist and internal/serve
// established the contract: every JSON document arriving over HTTP (or
// read back from an artifact file) is decoded with DisallowUnknownFields,
// checked for trailing data, and read through a size cap — so a typoed
// field cannot silently select defaults and a hostile body cannot balloon
// memory. A new endpoint that decodes r.Body with a bare json.NewDecoder
// bypasses all three; so does a helper that decodes leniently three calls
// away from the handler that owns the body. The analyzer computes a
// per-function wire-decode summary (flow.go) and checks both the direct
// decode sites and every call site where a request/response body flows
// into a decoding helper.
var wireStrict = &Analyzer{
	Name: "wirestrict",
	Doc:  "wire-boundary JSON decodes disallow unknown fields, reject trailing data, and sit behind a size cap",
	Run:  runWireStrict,
}

func runWireStrict(p *Pass) {
	p.inspect(func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			return true
		}
		checkWireDecodes(p, fd.Body)
		return true
	})
}

// checkWireDecodes walks one function body for (a) direct decode sites
// whose reader derives from an HTTP body or opened file, and (b) calls
// forwarding such a reader into a function whose summary says it decodes
// its parameters.
func checkWireDecodes(p *Pass, body *ast.BlockStmt) {
	for _, site := range decodeSites(p.Pkg, body) {
		if !isWireReader(p, site.reader) {
			continue
		}
		reportLooseSite(p, site)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := staticCallee(p.Pkg, call)
		if !ok {
			return true
		}
		sum := p.Prog.WireFor(fn)
		if !sum.Decodes {
			return true
		}
		for _, arg := range call.Args {
			if !isWireReader(p, arg) {
				continue
			}
			var missing []string
			if !sum.Strict {
				missing = append(missing, "DisallowUnknownFields")
			}
			if !sum.Trailing {
				missing = append(missing, "a trailing-data check")
			}
			if !sum.Caps && !exprHasCap(p.Pkg, arg) {
				missing = append(missing, "a size cap (http.MaxBytesReader / io.LimitReader)")
			}
			if len(missing) > 0 {
				p.Reportf(call.Pos(), "wire input flows into %s, which decodes it without %s — wire boundaries decode strictly (see internal/dist/wire.go)", calleeLabel(fn), strings.Join(missing, ", "))
			}
		}
		return true
	})
}

// reportLooseSite reports one direct decode site missing any of the
// three strictness properties, attaching a mechanical fix when the only
// gap is the DisallowUnknownFields call on a named decoder.
func reportLooseSite(p *Pass, site decodeSite) {
	var missing []string
	if !site.facts.Strict {
		missing = append(missing, "DisallowUnknownFields")
	}
	if !site.facts.Trailing {
		missing = append(missing, "a trailing-data check (second Decode against io.EOF, or More)")
	}
	if !site.facts.Caps {
		missing = append(missing, "a size cap (http.MaxBytesReader / io.LimitReader)")
	}
	if len(missing) == 0 {
		return
	}
	var fix *SuggestedFix
	if !site.facts.Strict && site.decl != nil {
		fix = disallowUnknownFix(p, site)
	}
	p.ReportFix(site.call.Pos(), fix,
		fmt.Sprintf("JSON decode on a wire boundary without %s — wire boundaries decode strictly (see internal/dist/wire.go)", strings.Join(missing, ", ")))
}

// disallowUnknownFix builds the insertion of dec.DisallowUnknownFields()
// on the line after the decoder binding.
func disallowUnknownFix(p *Pass, site decodeSite) *SuggestedFix {
	id, ok := unparen(site.decl.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	pos := p.Pkg.Fset.Position(site.decl.Pos())
	end := p.Pkg.Fset.Position(site.decl.End())
	src, ok := p.Pkg.Src[pos.Filename]
	if !ok || pos.Offset >= len(src) {
		return nil
	}
	// Reuse the binding line's indentation for the inserted call.
	lineStart := pos.Offset
	for lineStart > 0 && src[lineStart-1] != '\n' {
		lineStart--
	}
	indent := src[lineStart:pos.Offset]
	if len(strings.TrimSpace(string(indent))) > 0 {
		indent = nil
	}
	return &SuggestedFix{
		Message: "insert " + id.Name + ".DisallowUnknownFields() after the decoder binding",
		Edits: []TextEdit{{
			File:    pos.Filename,
			Start:   end.Offset,
			End:     end.Offset,
			NewText: "\n" + string(indent) + id.Name + ".DisallowUnknownFields()",
		}},
	}
}

// isWireReader reports whether the expression chain carries wire input: a
// .Body selector on *http.Request or *http.Response, an
// http.MaxBytesReader result, or a file opened by os.Open/os.OpenFile.
func isWireReader(p *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Sel.Name != "Body" {
				return true
			}
			t := p.Pkg.Info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == "net/http" &&
				(named.Obj().Name() == "Request" || named.Obj().Name() == "Response") {
				found = true
			}
		case *ast.CallExpr:
			if fn, ok := staticCallee(p.Pkg, n); ok && fn.Pkg() != nil {
				switch fn.Pkg().Path() + "." + fn.Name() {
				case "net/http.MaxBytesReader", "os.Open", "os.OpenFile":
					found = true
				}
			}
		}
		return !found
	})
	return found
}
