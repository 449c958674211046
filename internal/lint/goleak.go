package lint

import (
	"go/ast"
	"go/types"
)

// goLeak reports goroutine spawns that provably escape their spawner:
// nothing in the spawned body, its transitive callees, or the values it
// was handed observes a lifecycle (context, channel, WaitGroup or
// internal/par primitive), so nothing can cancel the goroutine or wait
// for it. In this codebase every long-lived goroutine is joined — serve's
// worker pool drains on Close, dist's heartbeat loops exit with their
// context — because an unjoined goroutine can hold a store lock or append
// to an artifact after the test that spawned it returned, which shows up
// as rare CI-only corruption. The check is interprocedural: a goroutine
// whose body is `helper()` is fine when helper three packages away ranges
// over a channel, and flagged when nothing it reaches ever can be told to
// stop.
var goLeak = &Analyzer{
	Name: "goleak",
	Doc:  "goroutines must be cancellable or awaitable: a context, channel, WaitGroup or par primitive, locally or in a transitive callee",
	Run:  runGoLeak,
}

func runGoLeak(p *Pass) {
	p.inspect(func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if goStmtLifecycled(p, gs) {
			return true
		}
		p.Reportf(gs.Pos(), "goroutine has no lifecycle: nothing it runs or was handed is a context, channel, WaitGroup or internal/par primitive, so it can neither be cancelled nor awaited")
		return true
	})
}

// goStmtLifecycled reports whether the spawned goroutine is provably
// joinable or cancellable. Unresolvable targets (interface methods,
// function values) stay silent: the analyzer only reports what it can
// prove escapes.
func goStmtLifecycled(p *Pass, gs *ast.GoStmt) bool {
	// A lifecycle value passed into the goroutine (a channel, context or
	// WaitGroup argument) is a join handle even if we cannot see the body.
	for _, arg := range gs.Call.Args {
		if exprCarriesLifecycle(p, arg) {
			return true
		}
	}
	switch fun := unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return funcLitLifecycled(p, fun)
	default:
		fn, ok := staticCallee(p.Pkg, gs.Call)
		if !ok {
			return true // function value: target unknown, stay silent
		}
		if p.Prog.InfoFor(fn) == nil {
			return true // external body (stdlib, interface): unprovable
		}
		// Method values close over their receiver; a receiver holding
		// channels is typical (w.run reads w.stop). The facts already
		// cover that: factLifecycled is set when the body touches one.
		return p.Prog.FactsFor(fn)&factLifecycled != 0
	}
}

// funcLitLifecycled reports whether a spawned literal observes a
// lifecycle directly or through a transitive callee.
func funcLitLifecycled(p *Pass, lit *ast.FuncLit) bool {
	if bodyTouchesLifecycle(p.Pkg, lit.Body) {
		return true
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := staticCallee(p.Pkg, call); ok && p.Prog.FactsFor(fn)&factLifecycled != 0 {
			found = true
		}
		return !found
	})
	return found
}

// exprCarriesLifecycle reports whether e contains a value of a lifecycle
// type: a channel, a context, or a *sync.WaitGroup.
func exprCarriesLifecycle(p *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		ex, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		t := p.Pkg.Info.TypeOf(ex)
		if t == nil {
			return true
		}
		if isContextType(t) || isWaitGroupType(t) {
			found = true
			return false
		}
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if _, ok := t.Underlying().(*types.Chan); ok {
			found = true
		}
		return !found
	})
	return found
}
