package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// detTaint guards the determinism contract — every record and every
// Algorithm 1 result is a pure function of the seed — with three rules
// over one interprocedural taint analysis (flow.go):
//
//   - Scope: in the analysis packages (stats, core, rl, sim), every
//     direct nondeterminism source — time.Now, a global math/rand
//     function — and every map-order site — an append to a slice that is
//     never sorted, or a float accumulation, under a map range — is
//     reported where it occurs.
//   - Sinks: values derived from those sources are tracked through
//     helper calls (summary facts over the module call graph) and
//     reported where they reach the campaign artifact surface: a
//     campaign.Record, a record sink's Append, SortedBytes input, or an
//     atomically finalized artifact. That catches the time.Now three
//     calls deep in another package whose result lands in a record
//     field, which would silently break the byte-identical-store
//     contract the dist equivalence suites enforce.
//   - Seeded purity: a function that receives a seed parameter promises
//     to be a deterministic function of it, so calling anything that
//     transitively reaches a nondeterminism source from such a function
//     is reported even when the source is packages away.
//
// Each position is reported at most once: a time.Now in a seeded stats
// function breaks one invariant, not two.
var detTaint = &Analyzer{
	Name: "dettaint",
	Doc:  "no nondeterminism in analysis packages, none flowing through helpers into campaign records, sinks or SortedBytes, and seeded functions stay pure",
	Run:  runDetTaint,
}

// analysisScope are the analysis-path packages where any nondeterminism
// silently breaks the bit-identical-at-any-worker-count contract.
var analysisScope = []string{"internal/stats", "internal/core", "internal/rl", "internal/sim"}

// reportFunc records one finding. The one runDetTaint hands out drops
// any finding at a position already reported.
type reportFunc func(pos token.Pos, format string, args ...any)

func runDetTaint(p *Pass) {
	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			p.Reportf(pos, format, args...)
		}
	}
	scoped := inAnalysisScope(p.Pkg.Path)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := p.Prog.InfoFor(fn)
			if fi == nil {
				continue
			}
			tt := newTaint(p.Prog, fi)
			sites := tt.run()
			checkRecordSinks(p, fi, tt, report)
			if p.Prog.FactsFor(fn)&factReceivesSeed != 0 {
				checkSeededPurity(p, fi, report)
			}
			if scoped {
				for _, s := range sites {
					report(s.pos, "%s", s.msg)
				}
			}
		}
	}
	if scoped {
		// Whole files, not just function bodies: a package-level
		// `var start = time.Now()` counts too.
		p.inspect(func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := staticCallee(p.Pkg, call)
			if !ok || !isNondetSource(fn) {
				return true
			}
			if fn.Pkg().Path() == "time" {
				report(call.Pos(), "time.Now() in a deterministic analysis path — inject time from the caller or derive it from the seed")
			} else {
				report(call.Pos(), "global %s.%s uses unseeded process-wide state — use a seeded rand.New(rand.NewSource(...))", fn.Pkg().Path(), fn.Name())
			}
			return true
		})
	}
}

// inAnalysisScope matches the real analysis packages and fixture
// packages whose path ends in one of their names.
func inAnalysisScope(path string) bool {
	for _, seg := range analysisScope {
		if pathHasSegment(path, seg) {
			return true
		}
	}
	switch lastSegment(path) {
	case "stats", "core", "rl", "sim":
		return true
	}
	return false
}

// checkRecordSinks reports taint (already propagated through tt) reaching
// the campaign artifact surface.
func checkRecordSinks(p *Pass, fi *FuncInfo, tt *taint, report reportFunc) {
	if len(tt.tainted) == 0 && !hasNondetCalls(p, fi) {
		return
	}

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if !isCampaignRecordType(p.Pkg.Info.TypeOf(n)) {
				return true
			}
			for _, elt := range n.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if tt.exprTainted(val) {
					report(val.Pos(), "nondeterministic value reaches a campaign.Record — record bytes must be a pure function of the spec (trace the taint through %s)", taintOrigin(p, tt, val))
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := unparen(lhs).(*ast.SelectorExpr)
				if !ok || !isCampaignRecordType(p.Pkg.Info.TypeOf(sel.X)) {
					continue
				}
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				if tt.exprTainted(rhs) {
					report(rhs.Pos(), "nondeterministic value assigned to campaign.Record.%s — record bytes must be a pure function of the spec", sel.Sel.Name)
				}
			}
		case *ast.CallExpr:
			if !isRecordSinkCall(p, n) {
				return true
			}
			for _, arg := range n.Args {
				if tt.exprTainted(arg) {
					report(arg.Pos(), "nondeterministic value flows into %s — the artifact store must be byte-identical across runs and worker counts", sinkName(p, n))
				}
			}
		}
		return true
	})
}

// checkSeededPurity reports calls from a seeded function to anything
// that transitively reaches a nondeterminism source.
func checkSeededPurity(p *Pass, fi *FuncInfo, report reportFunc) {
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := staticCallee(p.Pkg, call)
		if !ok {
			return true
		}
		if isNondetSource(fn) {
			report(call.Pos(), "%s.%s in a function that receives a seed — seeded functions must be pure functions of their seed", fn.Pkg().Name(), fn.Name())
			return true
		}
		if p.Prog.FactsFor(fn)&factReachesNondet != 0 {
			report(call.Pos(), "call to %s reaches a nondeterminism source (time.Now or global math/rand) from a function that receives a seed — seeded paths must be pure functions of their seed", calleeLabel(fn))
		}
		return true
	})
}

// hasNondetCalls reports whether the function calls any nondeterminism
// source or nondet-returning callee — the cheap pre-filter before the
// sink walk.
func hasNondetCalls(p *Pass, fi *FuncInfo) bool {
	for _, callee := range fi.Callees {
		if isNondetSource(callee) || p.Prog.FactsFor(callee)&factReturnsNondet != 0 {
			return true
		}
	}
	return false
}

// isCampaignRecordType reports whether t is the campaign Record type (a
// named struct called Record in a package whose path ends in /campaign —
// the segment rule keeps fixtures under testdata working).
func isCampaignRecordType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Record" && isCampaignPkg(named.Obj().Pkg().Path())
}

// isCampaignPkg matches the real internal/campaign package and fixture
// packages whose path ends in /campaign.
func isCampaignPkg(path string) bool {
	return pathHasSegment(path, "internal/campaign") || lastSegment(path) == "campaign"
}

// isRecordSinkCall reports whether call hands data to the campaign
// artifact surface: SortedBytes or WriteFileAtomic in a campaign
// package, or an Append method on a type (or interface) declared in one.
func isRecordSinkCall(p *Pass, call *ast.CallExpr) bool {
	fn, ok := staticCallee(p.Pkg, call)
	if !ok || fn.Pkg() == nil || !isCampaignPkg(fn.Pkg().Path()) {
		return false
	}
	switch fn.Name() {
	case "SortedBytes", "WriteFileAtomic", "Append":
		return true
	}
	return false
}

// sinkName renders a sink call for the message.
func sinkName(p *Pass, call *ast.CallExpr) string {
	if fn, ok := staticCallee(p.Pkg, call); ok {
		return "campaign." + fn.Name()
	}
	return "a campaign sink"
}

// calleeLabel renders pkg.Func or pkg.Type.Method for messages.
func calleeLabel(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// taintOrigin names the first tainted identifier or nondet call inside e
// for the message, so the report points at the helper chain to follow.
func taintOrigin(p *Pass, tt *taint, e ast.Expr) string {
	origin := "this expression"
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := p.Pkg.Info.Uses[n]; obj != nil && tt.tainted[obj] {
				origin = n.Name
				return false
			}
		case *ast.CallExpr:
			if fn, ok := staticCallee(p.Pkg, n); ok {
				if isNondetSource(fn) || p.Prog.FactsFor(fn)&factReturnsNondet != 0 {
					origin = calleeLabel(fn)
					return false
				}
			}
		}
		return true
	})
	return origin
}
