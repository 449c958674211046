package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// callee resolves the object a call expression invokes, through any
// parentheses: a package-level function, a method, or nil for indirect
// calls, conversions and builtins.
func (p *Pass) callee(call *ast.CallExpr) types.Object {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		return p.Pkg.Info.Uses[f.Sel]
	}
	return nil
}

// isPkgObj reports whether obj is the package-level object pkgPath.name.
func isPkgObj(obj types.Object, pkgPath, name string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// identObject resolves an identifier whether it is a use or a definition.
func identObject(p *Pass, id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

// isWaitGroupType reports whether t is sync.WaitGroup or *sync.WaitGroup.
func isWaitGroupType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.String() == "sync.WaitGroup"
}

// pathHasSegment reports whether importPath contains seg as a complete
// `/`-separated run (e.g. seg "internal/stats" matches
// ".../internal/stats" and ".../internal/stats/sub" but not
// ".../internal/statsx").
func pathHasSegment(importPath, seg string) bool {
	i := strings.Index(importPath, seg)
	for i >= 0 {
		before := i == 0 || importPath[i-1] == '/'
		end := i + len(seg)
		after := end == len(importPath) || importPath[end] == '/'
		if before && after {
			return true
		}
		j := strings.Index(importPath[i+1:], seg)
		if j < 0 {
			break
		}
		i += 1 + j
	}
	return false
}

// lastSegment returns the final `/`-separated element of an import path.
func lastSegment(importPath string) string {
	if i := strings.LastIndex(importPath, "/"); i >= 0 {
		return importPath[i+1:]
	}
	return importPath
}

// rootIdent returns the leftmost identifier of an expression chain
// (x, x.f, x.f[i].g → x), or nil when the base is not an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// funcBodies yields every function body in the package — declarations and
// literals — exactly once, paired with its parameter list. Literals nested
// inside a declaration are visited separately, so callers analyzing "the
// enclosing function" should not re-descend into nested literals.
func (p *Pass) funcBodies(fn func(params *ast.FieldList, body *ast.BlockStmt)) {
	p.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n.Type.Params, n.Body)
			}
		case *ast.FuncLit:
			fn(n.Type.Params, n.Body)
		}
		return true
	})
}
