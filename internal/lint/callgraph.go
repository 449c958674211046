package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file builds the whole-program view the interprocedural analyzers
// (dettaint, wirestrict, goleak, fpreassoc) consult: a static call graph
// over every declared function in the loaded module closure, condensed
// into strongly connected components so per-function facts (flow.go) can
// be propagated bottom-up — callees first, callers after — with a small
// fixpoint inside each recursion cycle.
//
// Two structural properties keep this cheap:
//
//   - Go imports are acyclic, so every call cycle is intra-package. The
//     SCC pass (Tarjan) therefore runs one package at a time, after that
//     package's imports have been processed, and never revisits a
//     finished package.
//   - Facts form a join semilattice (bit-union for the monotone facts, a
//     bounded all-sites conjunction for the wire-decode summary), so the
//     fixpoint is unique regardless of iteration order — the analysis
//     report stays bit-identical at any worker count.

// A FuncInfo is one declared function (or method) with a body, plus the
// static call edges out of it. Calls made inside nested function literals
// are attributed to the enclosing declaration: for lifetime and taint
// facts a closure's behavior is its owner's behavior.
type FuncInfo struct {
	// Fn is the go/types object for the declaration.
	Fn *types.Func
	// Decl is the syntax, body included.
	Decl *ast.FuncDecl
	// Pkg is the package the declaration lives in.
	Pkg *Package
	// Callees are the statically resolved callees, in first-call source
	// order, deduplicated. Calls through interfaces and function values
	// do not resolve and are treated as fact-free (conservative for
	// conjunctive facts, silent for disjunctive ones).
	Callees []*types.Func
}

// A Program is the interprocedural view over one or more analysis target
// packages and their module-internal dependency closure. Build it once
// with newProgram, then read it from any number of goroutines: all maps
// are frozen after construction.
type Program struct {
	info  map[*types.Func]*FuncInfo
	facts map[*types.Func]Facts
	wire  map[*types.Func]wireFacts
	done  map[*Package]bool
}

// newProgram computes the call graph and function facts for pkgs and
// every module-internal package they transitively import.
func newProgram(pkgs []*Package) *Program {
	pr := &Program{
		info:  make(map[*types.Func]*FuncInfo),
		facts: make(map[*types.Func]Facts),
		wire:  make(map[*types.Func]wireFacts),
		done:  make(map[*Package]bool),
	}
	for _, pkg := range pkgs {
		pr.ensure(pkg)
	}
	return pr
}

// ensure processes pkg after its imports: collects its function
// declarations and call edges, then runs the SCC fact pass (flow.go).
func (pr *Program) ensure(pkg *Package) {
	if pr.done[pkg] {
		return
	}
	pr.done[pkg] = true
	// Imports first: facts are bottom-up, and import cycles are
	// impossible, so the recursion terminates with callee facts ready.
	deps := make([]string, 0, len(pkg.Imports))
	for path := range pkg.Imports {
		deps = append(deps, path)
	}
	sort.Strings(deps)
	for _, path := range deps {
		pr.ensure(pkg.Imports[path])
	}

	var fns []*FuncInfo
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg, Callees: calleesOf(pkg, fd.Body)}
			pr.info[fn] = fi
			fns = append(fns, fi)
		}
	}
	pr.computeFacts(fns)
}

// calleesOf statically resolves every call under body (nested literals
// included) to its *types.Func, deduplicated in first-call order.
func calleesOf(pkg *Package, body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := staticCallee(pkg, call); ok && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
}

// staticCallee resolves a call expression to a declared function or
// method object, when the target is statically known.
func staticCallee(pkg *Package, call *ast.CallExpr) (*types.Func, bool) {
	var obj types.Object
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[f.Sel]
	case *ast.IndexExpr: // generic instantiation: f[T](...)
		if id, ok := unparen(f.X).(*ast.Ident); ok {
			obj = pkg.Info.Uses[id]
		}
	}
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// InfoFor returns the FuncInfo for fn, or nil when fn has no body in the
// loaded closure (stdlib, interface methods, function values).
func (pr *Program) InfoFor(fn *types.Func) *FuncInfo { return pr.info[fn] }

// FactsFor returns the propagated facts for fn (zero for unknown
// functions).
func (pr *Program) FactsFor(fn *types.Func) Facts { return pr.facts[fn] }

// WireFor returns the wire-decode summary for fn.
func (pr *Program) WireFor(fn *types.Func) wireFacts { return pr.wire[fn] }

// computeFacts runs Tarjan's SCC algorithm over one package's functions
// (cross-package edges point at already-finished packages) and evaluates
// each component's facts to a fixpoint, callees first.
func (pr *Program) computeFacts(fns []*FuncInfo) {
	index := make(map[*FuncInfo]int, len(fns))
	low := make(map[*FuncInfo]int, len(fns))
	onStack := make(map[*FuncInfo]bool, len(fns))
	var stack []*FuncInfo
	next := 0

	var strongconnect func(fi *FuncInfo)
	strongconnect = func(fi *FuncInfo) {
		index[fi] = next
		low[fi] = next
		next++
		stack = append(stack, fi)
		onStack[fi] = true

		for _, callee := range fi.Callees {
			ci := pr.info[callee]
			if ci == nil || ci.Pkg != fi.Pkg {
				continue // external, or a finished package: facts final
			}
			if _, seen := index[ci]; !seen {
				strongconnect(ci)
				if low[ci] < low[fi] {
					low[fi] = low[ci]
				}
			} else if onStack[ci] && index[ci] < low[fi] {
				low[fi] = index[ci]
			}
		}

		if low[fi] == index[fi] {
			var scc []*FuncInfo
			for {
				n := len(stack) - 1
				m := stack[n]
				stack = stack[:n]
				onStack[m] = false
				scc = append(scc, m)
				if m == fi {
					break
				}
			}
			pr.evalSCC(scc)
		}
	}
	for _, fi := range fns {
		if _, seen := index[fi]; !seen {
			strongconnect(fi)
		}
	}
}

// evalSCC iterates local fact extraction over one component until no
// member's facts change. Facts only grow (and the wire summary only
// moves down a finite lattice), so the loop terminates; components are
// near-always singletons.
func (pr *Program) evalSCC(scc []*FuncInfo) {
	for {
		changed := false
		for _, fi := range scc {
			facts, wire := localFacts(pr, fi)
			if facts != pr.facts[fi.Fn] || wire != pr.wire[fi.Fn] {
				pr.facts[fi.Fn] = facts
				pr.wire[fi.Fn] = wire
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}
