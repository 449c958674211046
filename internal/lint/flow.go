package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Facts are the per-function summary bits the interprocedural analyzers
// consume. All of them are disjunctive ("may"): they grow monotonically
// under bottom-up propagation, so the SCC fixpoint in callgraph.go is
// unique. The wire-decode summary, whose strictness bits are conjunctive
// ("must hold at every decode site"), lives in wireFacts instead.
type Facts uint16

const (
	// factReachesNondet: the function (or a transitive callee) invokes a
	// nondeterminism source — time.Now or a global math/rand function.
	factReachesNondet Facts = 1 << iota
	// factReturnsNondet: a value derived from a nondeterminism source or
	// from random map-iteration order may flow out of the function's
	// results.
	factReturnsNondet
	// factReceivesSeed: the function takes an integer parameter named
	// seed-like; its output is expected to be a pure function of it.
	factReceivesSeed
	// factLifecycled: the function's execution observes a lifecycle —
	// a context, channel operation, WaitGroup or internal/par primitive —
	// directly or through a transitive callee. A goroutine running a
	// lifecycled function can be cancelled or awaited.
	factLifecycled
	// factPtrAccum: the function accumulates (+= and friends) through a
	// float pointer parameter — calling it from concurrent workers with a
	// shared target makes the reduction order schedule-dependent.
	factPtrAccum
)

// wireFacts summarizes how a function treats readers it was handed: the
// strict-decode convention of internal/dist and internal/serve. Decodes
// is disjunctive; the remaining bits are conjunctive over every decode
// site reachable from the function's reader parameters.
type wireFacts struct {
	// Decodes: a reader/byte-slice parameter reaches a json decode.
	Decodes bool
	// Strict: every such decode disallows unknown fields.
	Strict bool
	// Trailing: every such decode checks for trailing data (a second
	// Decode against io.EOF, or More()).
	Trailing bool
	// Caps: every such decode is behind a size cap applied inside the
	// function itself (LimitReader/MaxBytesReader, or a materialized
	// byte slice, which some upstream read already bounded).
	Caps bool
}

// merge folds one decode site (or forwarded callee summary) into the
// conjunctive summary.
func (w *wireFacts) merge(site wireFacts) {
	if !site.Decodes {
		return
	}
	if !w.Decodes {
		*w = site
		return
	}
	w.Strict = w.Strict && site.Strict
	w.Trailing = w.Trailing && site.Trailing
	w.Caps = w.Caps && site.Caps
}

// localFacts computes one function's facts from its body and the current
// facts of its callees. It is re-run to fixpoint inside call cycles.
func localFacts(pr *Program, fi *FuncInfo) (Facts, wireFacts) {
	var facts Facts
	if hasSeedParam(fi) {
		facts |= factReceivesSeed
	}
	for _, callee := range fi.Callees {
		cf := pr.facts[callee]
		facts |= cf & (factReachesNondet | factLifecycled)
		if isNondetSource(callee) {
			facts |= factReachesNondet
		}
	}
	if bodyTouchesLifecycle(fi.Pkg, fi.Decl.Body) {
		facts |= factLifecycled
	}
	if ptrAccumulates(fi) {
		facts |= factPtrAccum
	}

	tt := newTaint(pr, fi)
	tt.run()
	if tt.returnsTainted() {
		facts |= factReturnsNondet
	}

	return facts, wireSummary(pr, fi)
}

// globalRandFuncs are the math/rand package-level functions backed by the
// unseeded global source. Constructors (New, NewSource, NewZipf) are fine:
// the repo's rule is seeded rand.New(rand.NewSource(...)).
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true, "Int63": true,
	"Int63n": true, "Uint32": true, "Uint64": true, "Float32": true,
	"Float64": true, "ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true,
}

// isNondetSource reports whether fn is a root nondeterminism source:
// time.Now, or a package-level math/rand function backed by the global
// unseeded state.
func isNondetSource(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "time":
		return fn.Name() == "Now"
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		return ok && sig.Recv() == nil && globalRandFuncs[fn.Name()]
	}
	return false
}

// hasSeedParam reports whether the declaration takes an integer
// parameter whose name is seed-like (seed, baseSeed, ...).
func hasSeedParam(fi *FuncInfo) bool {
	if fi.Decl.Type.Params == nil {
		return false
	}
	for _, field := range fi.Decl.Type.Params.List {
		for _, name := range field.Names {
			lower := strings.ToLower(name.Name)
			if lower != "seed" && !strings.HasSuffix(lower, "seed") {
				continue
			}
			if t := fi.Pkg.Info.TypeOf(field.Type); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					return true
				}
			}
		}
	}
	return false
}

// bodyTouchesLifecycle reports whether body references a context, a
// WaitGroup, a channel operation, or an internal/par call — the
// lifecycle markers behind the transitive factLifecycled bit goleak
// reads.
func bodyTouchesLifecycle(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch m := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(m.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := unparen(m.Fun).(*ast.Ident); ok && id.Name == "close" && pkg.Info.Uses[id] == nil {
				found = true
			}
			if fn, ok := staticCallee(pkg, m); ok && fn.Pkg() != nil && pathHasSegment(fn.Pkg().Path(), "internal/par") {
				found = true
			}
		case ast.Expr:
			if t := pkg.Info.TypeOf(m); isContextType(t) || isWaitGroupType(t) {
				found = true
			}
		}
		return !found
	})
	return found
}

// ptrAccumulates reports whether the function compound-assigns through a
// float pointer parameter (*sum += x).
func ptrAccumulates(fi *FuncInfo) bool {
	ptrParams := make(map[types.Object]bool)
	if fi.Decl.Type.Params != nil {
		for _, field := range fi.Decl.Type.Params.List {
			t := fi.Pkg.Info.TypeOf(field.Type)
			ptr, ok := t.(*types.Pointer)
			if !ok {
				continue
			}
			if b, ok := ptr.Elem().Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
				continue
			}
			for _, name := range field.Names {
				if obj := fi.Pkg.Info.Defs[name]; obj != nil {
					ptrParams[obj] = true
				}
			}
		}
	}
	if len(ptrParams) == 0 {
		return false
	}
	found := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return !found
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return !found
		}
		star, ok := unparen(as.Lhs[0]).(*ast.StarExpr)
		if !ok {
			return !found
		}
		if id, ok := unparen(star.X).(*ast.Ident); ok && ptrParams[fi.Pkg.Info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// --- value taint -----------------------------------------------------

// taint is a flow-insensitive per-function value-taint analysis: a value
// is tainted when it derives from a nondeterminism source (time.Now,
// global math/rand, a callee with factReturnsNondet) or carries random
// map-iteration order (a slice appended to under a map range and never
// sorted, or a float accumulated under one). dettaint asks it two
// questions: does taint reach the function's results (the propagated
// factReturnsNondet), and does taint reach a campaign record sink.
type taint struct {
	pr      *Program
	fi      *FuncInfo
	tainted map[types.Object]bool
}

func newTaint(pr *Program, fi *FuncInfo) *taint {
	return &taint{pr: pr, fi: fi, tainted: make(map[types.Object]bool)}
}

// run iterates assignment propagation to a fixpoint and returns the
// map-order sites that seeded it.
func (t *taint) run() []mapOrderSite {
	sites := t.seedMapOrderTaint()
	for {
		changed := false
		ast.Inspect(t.fi.Decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			// Compound assigns (x += tainted) taint the target too.
			if len(as.Rhs) == 1 && len(as.Lhs) >= 1 && t.exprTainted(as.Rhs[0]) {
				for _, lhs := range as.Lhs {
					if t.markLHS(lhs) {
						changed = true
					}
				}
			} else if len(as.Rhs) == len(as.Lhs) {
				for i, rhs := range as.Rhs {
					if t.exprTainted(rhs) && t.markLHS(as.Lhs[i]) {
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			return sites
		}
	}
}

// A mapOrderSite is one place where random map-iteration order leaks
// into a value: an append under a map range to a slice that is never
// sorted, or a float accumulated under one. dettaint reports these
// directly in the analysis packages.
type mapOrderSite struct {
	pos token.Pos
	msg string
}

// seedMapOrderTaint marks order-carrying variables — slices appended to
// inside a map range that are never sorted afterwards, and floats
// compound-assigned inside one — so the taint can cross call
// boundaries, and returns the sites where that happens.
func (t *taint) seedMapOrderTaint() []mapOrderSite {
	body := t.fi.Decl.Body
	p := &Pass{Pkg: t.fi.Pkg} // helper receiver for shared resolution utilities
	var sites []mapOrderSite
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tx := t.fi.Pkg.Info.TypeOf(rng.X)
		if tx == nil {
			return true
		}
		if _, isMap := tx.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			switch as.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if b, ok := t.fi.Pkg.Info.TypeOf(as.Lhs[0]).Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
					sites = append(sites, mapOrderSite{as.Pos(), "float accumulation inside map iteration — summation order follows random map order; iterate sorted keys"})
					if root := rootIdent(as.Lhs[0]); root != nil {
						if obj := identObject(p, root); obj != nil {
							t.tainted[obj] = true
						}
					}
				}
			case token.ASSIGN, token.DEFINE:
				if len(as.Rhs) != 1 {
					return true
				}
				call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := unparen(call.Fun).(*ast.Ident)
				if !ok || !isBuiltinAppend(p, id) {
					return true
				}
				if root := rootIdent(as.Lhs[0]); root != nil {
					if obj := identObject(p, root); obj != nil && !sortedLater(p, body, obj) {
						sites = append(sites, mapOrderSite{as.Pos(), "map iteration appends to " + obj.Name() + " which is never sorted in this function — output order follows random map order"})
						t.tainted[obj] = true
					}
				}
			}
			return true
		})
		return true
	})
	return sites
}

// isBuiltinAppend reports whether id resolves to the predeclared append
// builtin (not a user-defined function shadowing the name).
func isBuiltinAppend(p *Pass, id *ast.Ident) bool {
	if id.Name != "append" {
		return false
	}
	_, ok := p.Pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// sortedLater reports whether obj is handed to a sort/slices sorting call
// anywhere in body — the collect-keys-then-sort idiom that makes a
// map-range deterministic.
func sortedLater(p *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		callee := p.callee(call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		pkg := callee.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && identObject(p, id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// markLHS taints the root object of an assignment target; reports
// whether that was new information.
func (t *taint) markLHS(lhs ast.Expr) bool {
	root := rootIdent(lhs)
	if root == nil {
		return false
	}
	p := &Pass{Pkg: t.fi.Pkg}
	obj := identObject(p, root)
	if obj == nil || t.tainted[obj] {
		return false
	}
	t.tainted[obj] = true
	return true
}

// exprTainted reports whether any value flowing out of e may be tainted.
// Conservative over calls: a call is tainted when its callee returns
// nondeterminism or any argument (or the receiver) is tainted.
func (t *taint) exprTainted(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its body's effects are handled by the outer walk
		case *ast.Ident:
			obj := t.fi.Pkg.Info.Uses[n]
			if obj != nil && t.tainted[obj] {
				found = true
			}
		case *ast.CallExpr:
			if fn, ok := staticCallee(t.fi.Pkg, n); ok {
				if isNondetSource(fn) || t.pr.facts[fn]&factReturnsNondet != 0 {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// returnsTainted reports whether a tainted value reaches the function's
// results: a tainted return expression, or a tainted named result.
func (t *taint) returnsTainted() bool {
	results := t.fi.Decl.Type.Results
	if results == nil {
		return false
	}
	found := false
	ast.Inspect(t.fi.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's returns are not the function's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, e := range ret.Results {
			if t.exprTainted(e) {
				found = true
			}
		}
		return !found
	})
	if found {
		return true
	}
	// Bare returns with tainted named results.
	for _, field := range results.List {
		for _, name := range field.Names {
			if obj := t.fi.Pkg.Info.Defs[name]; obj != nil && t.tainted[obj] {
				return true
			}
		}
	}
	return false
}

// --- wire-decode summary ---------------------------------------------

// paramReaderObjs collects the function's parameters that can carry wire
// input onward: io.Reader-compatible values and byte slices.
func paramReaderObjs(fi *FuncInfo) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	if fi.Decl.Type.Params == nil {
		return objs
	}
	for _, field := range fi.Decl.Type.Params.List {
		t := fi.Pkg.Info.TypeOf(field.Type)
		if t == nil || !isReaderish(t) {
			continue
		}
		for _, name := range field.Names {
			if obj := fi.Pkg.Info.Defs[name]; obj != nil {
				objs[obj] = true
			}
		}
	}
	return objs
}

// isReaderish reports whether t can carry a request/response body: an
// interface with a Read method, an *os.File-like concrete reader, or a
// byte slice.
func isReaderish(t types.Type) bool {
	if sl, ok := t.Underlying().(*types.Slice); ok {
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "Read" {
				return true
			}
		}
	}
	return false
}

// wireSummary computes a function's wireFacts: the conjunction over
// every decode site its reader parameters reach, locally or through
// callees that decode their own parameters.
func wireSummary(pr *Program, fi *FuncInfo) wireFacts {
	params := paramReaderObjs(fi)
	if len(params) == 0 {
		return wireFacts{}
	}
	fromParam := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && params[fi.Pkg.Info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}

	var sum wireFacts
	for _, site := range decodeSites(fi.Pkg, fi.Decl.Body) {
		if fromParam(site.reader) {
			sum.merge(site.facts)
		}
	}
	// Forwarding: a reader parameter handed to a callee that decodes its
	// own parameters inherits that callee's summary, upgraded by any cap
	// applied in the argument chain here.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := staticCallee(fi.Pkg, call)
		if !ok {
			return true
		}
		cw := pr.wire[fn]
		if !cw.Decodes {
			return true
		}
		for _, arg := range call.Args {
			if !fromParam(arg) {
				continue
			}
			site := cw
			if exprHasCap(fi.Pkg, arg) {
				site.Caps = true
			}
			sum.merge(site)
		}
		return true
	})
	return sum
}

// decodeSite is one json decode rooted at a reader expression, with the
// strictness that decode achieves inside this function.
type decodeSite struct {
	reader ast.Expr
	call   *ast.CallExpr
	// decl is the assign statement binding the decoder variable, when
	// the decoder is named (fix insertion point for wirestrict).
	decl  *ast.AssignStmt
	facts wireFacts
}

// decodeSites finds every json.NewDecoder/json.Unmarshal under body and
// computes per-site strictness: DisallowUnknownFields on the decoder
// variable, a trailing-data check (second Decode or More), and a local
// size cap in the reader expression.
func decodeSites(pkg *Package, body *ast.BlockStmt) []decodeSite {
	var sites []decodeSite
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := staticCallee(pkg, call)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
			return true
		}
		switch fn.Name() {
		case "Unmarshal":
			if len(call.Args) == 2 {
				// json.Unmarshal never rejects unknown fields; data is a
				// materialized slice, so the cap is inherent.
				sites = append(sites, decodeSite{
					reader: call.Args[0], call: call,
					facts: wireFacts{Decodes: true, Strict: false, Trailing: true, Caps: true},
				})
			}
		case "NewDecoder":
			if len(call.Args) != 1 {
				return true
			}
			site := decodeSite{
				reader: call.Args[0], call: call,
				facts: wireFacts{Decodes: true, Caps: exprHasCap(pkg, call.Args[0])},
			}
			if obj, decl := decoderVar(pkg, body, call); obj != nil {
				site.decl = decl
				site.facts.Strict = decoderCallCount(pkg, body, obj, "DisallowUnknownFields") > 0
				site.facts.Trailing = decoderCallCount(pkg, body, obj, "Decode") >= 2 ||
					decoderCallCount(pkg, body, obj, "More") > 0
			}
			sites = append(sites, site)
		}
		return true
	})
	return sites
}

// exprHasCap reports whether the reader expression chain applies a size
// bound: http.MaxBytesReader, io.LimitReader, or a reader over an
// already-materialized byte slice (bytes.NewReader/NewBuffer — whoever
// produced the slice bounded the read).
func exprHasCap(pkg *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := staticCallee(pkg, call)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() + "." + fn.Name() {
		case "net/http.MaxBytesReader", "io.LimitReader",
			"bytes.NewReader", "bytes.NewBuffer", "bytes.NewBufferString",
			"strings.NewReader":
			found = true
		}
		return !found
	})
	if found {
		return true
	}
	// A bare byte-slice or string expression is already materialized.
	if t := pkg.Info.TypeOf(e); t != nil {
		if isReaderish(t) {
			if _, isSlice := t.Underlying().(*types.Slice); isSlice {
				return true
			}
		}
	}
	return false
}

// decoderVar resolves the variable a json.NewDecoder result is bound to
// (dec := json.NewDecoder(r)), and the binding statement.
func decoderVar(pkg *Package, body *ast.BlockStmt, newDecoder *ast.CallExpr) (types.Object, *ast.AssignStmt) {
	var obj types.Object
	var decl *ast.AssignStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if obj != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		if unparen(as.Rhs[0]) != newDecoder {
			return true
		}
		if id, ok := unparen(as.Lhs[0]).(*ast.Ident); ok {
			p := &Pass{Pkg: pkg}
			obj = identObject(p, id)
			decl = as
		}
		return true
	})
	return obj, decl
}

// decoderCallCount counts method calls named method on the decoder
// variable obj under body.
func decoderCallCount(pkg *Package, body *ast.BlockStmt, obj types.Object, method string) int {
	count := 0
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return true
		}
		if id, ok := unparen(sel.X).(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			count++
		}
		return true
	})
	return count
}
