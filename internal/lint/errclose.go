package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// errClose reports discarded Close/Flush/Sync errors on files opened for
// writing. A write error surfacing only at Close (delayed flush, full
// disk) silently truncates campaign artifacts and CSV exports; the repo's
// rule is to check the error on write paths — finalize whole artifacts
// with campaign.WriteFileAtomic where a torn file must never be visible —
// and to acknowledge best-effort closes on error paths explicitly with
// `_ = f.Close()`.
var errClose = &Analyzer{
	Name: "errclose",
	Doc:  "no discarded Close/Flush/Sync errors on files opened for writing",
	Run:  runErrClose,
}

// writableOpeners are the calls whose result is a file the process
// intends to write.
var writableOpeners = map[string]bool{"Create": true, "OpenFile": true, "CreateTemp": true}

func runErrClose(p *Pass) {
	// Whole declarations, literals included: closures (cleanup funcs,
	// deferred finalizers) capture the files their enclosing function
	// opened.
	p.inspect(func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			return true
		}
		checkDiscardedCloses(p, fd.Body)
		return true
	})
}

func checkDiscardedCloses(p *Pass, body *ast.BlockStmt) {
	// Pass 1: variables holding writable files — assigned from
	// os.Create/os.OpenFile/os.CreateTemp, or buffered writers wrapping
	// one (bufio.NewWriter(f)).
	writable := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := p.callee(call)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		opensWritable := obj.Pkg().Path() == "os" && writableOpeners[obj.Name()]
		if !opensWritable && obj.Pkg().Path() == "bufio" && obj.Name() == "NewWriter" {
			if len(call.Args) == 1 {
				if root := rootIdent(call.Args[0]); root != nil && writable[identObject(p, root)] {
					opensWritable = true
				}
			}
		}
		if !opensWritable || len(as.Lhs) == 0 {
			return true
		}
		if root := rootIdent(as.Lhs[0]); root != nil {
			if o := identObject(p, root); o != nil {
				writable[o] = true
			}
		}
		return true
	})
	if len(writable) == 0 {
		return
	}

	// Pass 2: Close/Flush/Sync calls on those variables whose error
	// result is dropped on the floor — a bare expression statement or a
	// bare defer. Assigning the error (even to _) is an explicit,
	// greppable acknowledgement and is allowed.
	ast.Inspect(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		fixable := false // a bare statement can take `_ = `; a defer cannot
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = unparen(n.X).(*ast.CallExpr)
			fixable = true
		case *ast.DeferStmt:
			call = n.Call
		default:
			return true
		}
		if call == nil {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if name != "Close" && name != "Flush" && name != "Sync" {
			return true
		}
		root := rootIdent(sel.X)
		if root == nil || !writable[identObject(p, root)] {
			return true
		}
		if !returnsError(p.Pkg.Info.Uses[sel.Sel]) {
			return true
		}
		var fix *SuggestedFix
		if fixable {
			if edit, ok := p.editAt(call.Pos(), call.Pos(), "_ = "); ok {
				fix = &SuggestedFix{
					Message: "acknowledge the discard explicitly with `_ = " + root.Name + "." + name + "()`",
					Edits:   []TextEdit{edit},
				}
			}
		}
		p.ReportFix(call.Pos(), fix, fmt.Sprintf("%s.%s() error discarded on a file opened for writing — check it (write errors can surface only at %s; use campaign.WriteFileAtomic for must-not-tear artifacts, or `_ = %s.%s()` on best-effort error paths)",
			root.Name, name, name, root.Name, name))
		return true
	})
}

// returnsError reports whether obj is a function whose last result is an
// error (csv.Writer.Flush, which returns nothing, must not be flagged).
func returnsError(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return last.String() == "error"
}
