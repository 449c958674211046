package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FPReassoc guards the float reduction-order contract in the numeric
// packages (internal/stats, internal/sim): serial and parallel-worker
// variants of a kernel must produce bit-identical sums, which holds only
// when every parallel construct writes disjoint slots and a single
// deterministic loop folds them. Float addition is not associative, so a
// captured accumulator compound-assigned from inside a par worker body —
// or a shared *float64 handed to an accumulating helper — makes the
// result depend on the scheduler, breaking the equivalence tests across
// worker counts. The analyzer flags three shapes:
//
//   - a float compound-assign inside a worker closure (par.Do / ForEach /
//     Chunks / Argmin argument, or a go statement) whose target is
//     declared outside the closure and not a per-iteration slot,
//   - a worker closure passing a pointer to a captured variable into a
//     function that accumulates through its pointer parameter
//     (FactPtrAccum, interprocedural),
//   - a float compound-assign inside a range over a channel, where
//     arrival order is scheduler-dependent.
var FPReassoc = &Analyzer{
	Name: "fpreassoc",
	Doc:  "numeric kernels must not fold floats in scheduler-dependent order: no captured float accumulators in worker closures",
	Run:  runFPReassoc,
}

func runFPReassoc(p *Pass) {
	if !isNumericPkg(p.Pkg.Path) {
		return
	}
	p.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !isParWorkerCall(p, n) {
				return true
			}
			for _, arg := range n.Args {
				if lit, ok := unparen(arg).(*ast.FuncLit); ok {
					checkWorkerLit(p, lit)
				}
			}
		case *ast.GoStmt:
			if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
				checkWorkerLit(p, lit)
			}
		case *ast.RangeStmt:
			if t := p.Pkg.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					checkChanRangeAccum(p, n)
				}
			}
		}
		return true
	})
}

// checkWorkerLit reports reduction-order hazards inside one closure that
// runs concurrently with its siblings.
func checkWorkerLit(p *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if !isFloatCompound(p, n) {
				return true
			}
			lhs := unparen(n.Lhs[0])
			if !capturedTarget(p, lit, lhs) {
				return true
			}
			if isSlotWrite(p, lit, lhs) {
				return true
			}
			p.Reportf(n.Pos(), "float accumulation into a captured variable from a worker closure — reduction order becomes schedule-dependent; write per-worker slots and fold them in one deterministic loop")
		case *ast.CallExpr:
			fn, ok := staticCallee(p.Pkg, n)
			if !ok || p.Prog.FactsFor(fn)&FactPtrAccum == 0 {
				return true
			}
			for _, arg := range n.Args {
				un, ok := unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if capturedTarget(p, lit, unparen(un.X)) && !isSlotWrite(p, lit, unparen(un.X)) {
					p.Reportf(arg.Pos(), "pointer to a captured variable passed to %s, which accumulates through it — concurrent workers make the float reduction order schedule-dependent", calleeLabel(fn))
				}
			}
		}
		return true
	})
}

// checkChanRangeAccum reports float compound-assigns inside a range over
// a channel: values arrive in send-completion order, which the scheduler
// picks.
func checkChanRangeAccum(p *Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || !isFloatCompound(p, as) {
			return true
		}
		p.Reportf(as.Pos(), "float accumulation while ranging over a channel — arrival order is schedule-dependent; collect into indexed slots and fold deterministically")
		return true
	})
}

// isFloatCompound reports whether as is a +=/-=/*=//= with a float
// target.
func isFloatCompound(p *Pass, as *ast.AssignStmt) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	if len(as.Lhs) != 1 {
		return false
	}
	t := p.Pkg.Info.TypeOf(as.Lhs[0])
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// capturedTarget reports whether the root of e is declared outside lit —
// shared across all invocations of the closure.
func capturedTarget(p *Pass, lit *ast.FuncLit, e ast.Expr) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := identObject(p, root)
	if obj == nil {
		return false
	}
	return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
}

// isSlotWrite reports whether e is an index expression whose index is
// computed inside the closure (a per-iteration slot: each concurrent
// invocation touches a distinct element, the disjoint-slot idiom par.Do
// guarantees).
func isSlotWrite(p *Pass, lit *ast.FuncLit, e ast.Expr) bool {
	ix, ok := unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	inside := false
	ast.Inspect(ix.Index, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || inside {
			return !inside
		}
		if obj := identObject(p, id); obj != nil &&
			obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			inside = true
		}
		return !inside
	})
	return inside
}

// isParWorkerCall reports whether call invokes one of the parallel
// primitives whose closure argument runs concurrently: par.Do / ForEach /
// Chunks / Argmin, or campaign.ForEach (the re-export).
func isParWorkerCall(p *Pass, call *ast.CallExpr) bool {
	fn, ok := staticCallee(p.Pkg, call)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	parPkg := pathHasSegment(path, "internal/par") || lastSegment(path) == "par"
	switch fn.Name() {
	case "Do", "ForEach", "Chunks", "Argmin":
		return parPkg || isCampaignPkg(path)
	}
	return false
}

// isNumericPkg scopes the check to the reduction-sensitive numeric
// packages (and their fixture doubles under testdata).
func isNumericPkg(path string) bool {
	return pathHasSegment(path, "internal/stats") || pathHasSegment(path, "internal/sim") ||
		lastSegment(path) == "stats" || lastSegment(path) == "sim"
}
