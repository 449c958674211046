package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// seedArith reports ad-hoc arithmetic on seed values (`s.Seed + 9`,
// `seed + int64(i)`). Offset schemes collide across runs — stream k of
// seed s is stream k-1 of seed s+1 — which is exactly why the repo grew
// mathx.DeriveSeed (a splitmix64 mix of base and stream). Existing
// offsets that golden reports pin are suppressed in place with
// `//areslint:ignore seedarith golden-pinned`; new code must derive.
var seedArith = &Analyzer{
	Name: "seedarith",
	Doc:  "no ad-hoc seed+offset arithmetic — derive stream seeds with mathx.DeriveSeed",
	Run:  runSeedArith,
}

func runSeedArith(p *Pass) {
	p.inspect(func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.ADD && be.Op != token.SUB) {
			return true
		}
		if !isIntegerExpr(p, be) {
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			name, ok := seedName(side)
			if !ok {
				continue
			}
			p.ReportFix(be.Pos(), deriveSeedFix(p, be),
				fmt.Sprintf("ad-hoc seed arithmetic on %s — use mathx.DeriveSeed(base, stream) so streams cannot collide across base seeds", name))
			return true // one finding per expression
		}
		return true
	})
}

// deriveSeedFix rewrites `base + stream` into mathx.DeriveSeed(base,
// stream), adding the import when missing. Subtraction has no DeriveSeed
// analogue (the stream sign matters to the caller), so only ADD is
// fixable.
func deriveSeedFix(p *Pass, be *ast.BinaryExpr) *SuggestedFix {
	if be.Op != token.ADD {
		return nil
	}
	xText, okX := p.srcText(be.X.Pos(), be.X.End())
	yText, okY := p.srcText(be.Y.Pos(), be.Y.End())
	if !okX || !okY {
		return nil
	}
	repl, ok := p.editAt(be.Pos(), be.End(), "mathx.DeriveSeed("+xText+", "+yText+")")
	if !ok {
		return nil
	}
	fix := &SuggestedFix{
		Message: "replace with mathx.DeriveSeed(" + xText + ", " + yText + ")",
		Edits:   []TextEdit{repl},
	}
	imp, ok := p.ensureImport(be.Pos(), p.Pkg.ModPath+"/internal/mathx")
	if !ok {
		return nil // no import block to extend: the rewrite would not compile
	}
	if imp != (TextEdit{}) {
		fix.Edits = append(fix.Edits, imp)
	}
	return fix
}

// seedName reports whether e is an identifier or selector whose name is
// seed-like (seed, Seed, baseSeed, cfg.Seed, ...), returning the source
// name.
func seedName(e ast.Expr) (string, bool) {
	var name string
	switch e := unparen(e).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return "", false
	}
	lower := strings.ToLower(name)
	return name, lower == "seed" || strings.HasSuffix(lower, "seed")
}

// isIntegerExpr reports whether e's type is an integer kind (seeds are
// int64; untyped constants count).
func isIntegerExpr(p *Pass, e ast.Expr) bool {
	t := p.Pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
