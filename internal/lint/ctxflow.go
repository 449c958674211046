package lint

import "go/ast"

// ctxFlow enforces the repo's cancellation discipline: a function that
// receives a context.Context threads it down — it does not mint a fresh
// context.Background()/TODO() that detaches callees from the caller's
// cancellation, which is how drains hang. Goroutine lifetimes are
// goleak's.
var ctxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "thread received contexts into callees",
	Run:  runCtxFlow,
}

func runCtxFlow(p *Pass) {
	p.funcBodies(func(params *ast.FieldList, body *ast.BlockStmt) {
		checkCtxThreading(p, params, body)
	})
}

// hasCtxParam reports whether a parameter list includes a
// context.Context.
func hasCtxParam(p *Pass, params *ast.FieldList) bool {
	if params == nil {
		return false
	}
	for _, f := range params.List {
		if isContextType(p.Pkg.Info.TypeOf(f.Type)) {
			return true
		}
	}
	return false
}

// checkCtxThreading flags context.Background()/context.TODO() calls in a
// function that already receives a context. Nested literals that declare
// their own ctx parameter are skipped here — they are checked on their
// own visit.
func checkCtxThreading(p *Pass, params *ast.FieldList, body *ast.BlockStmt) {
	if !hasCtxParam(p, params) {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && hasCtxParam(p, lit.Type.Params) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := p.callee(call)
		if isPkgObj(obj, "context", "Background") || isPkgObj(obj, "context", "TODO") {
			p.Reportf(call.Pos(), "context.%s() inside a function that receives a ctx — thread the caller's context (or suppress with a reason if detaching is deliberate)", obj.Name())
		}
		return true
	})
}
