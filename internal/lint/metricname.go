package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strconv"
)

// metricNameRE is the repository's metric naming contract: one `ares_`
// namespace, lowercase snake case, so dashboards and the CI greps
// (`grep -x 'ares_serve_jobs_completed_total 1'`) can rely on the shape.
var metricNameRE = regexp.MustCompile(`^ares_[a-z0-9_]+$`)

// metricName enforces that every metrics registration uses an
// `ares_[a-z0-9_]+` string literal — a computed name cannot be grepped,
// alerted on, or checked for collisions statically — and that a name is
// registered as exactly one kind per package (a name reused as a
// different kind panics at runtime in the registry; catch it before
// then).
var metricName = &Analyzer{
	Name: "metricname",
	Doc:  "metrics register ares_* string literals, one kind per name",
	Run:  runMetricName,
}

func runMetricName(p *Pass) {
	type reg struct {
		kind string
		pos  ast.Node
	}
	seen := make(map[string]reg)
	p.inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, ok := registryMethod(p, call)
		if !ok || len(call.Args) == 0 {
			return true
		}
		lit, ok := unparen(call.Args[0]).(*ast.BasicLit)
		if !ok {
			p.Reportf(call.Args[0].Pos(), "metric name must be a string literal, not a computed value — literals keep names greppable and collision-checkable")
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		if !metricNameRE.MatchString(name) {
			p.Reportf(lit.Pos(), "metric name %q does not match ares_[a-z0-9_]+ — every instrument lives in the ares_ namespace", name)
			return true
		}
		if prev, ok := seen[name]; ok && prev.kind != kind {
			p.Reportf(lit.Pos(), "metric %q registered as %s here but as %s earlier in this package — one kind per name (the registry panics on this at runtime)", name, kind, prev.kind)
			return true
		}
		seen[name] = reg{kind: kind, pos: call}
		return true
	})
}

// registryMethod reports whether call invokes Counter/Gauge/Histogram on
// the repo's metrics.Registry, returning the lowercase kind.
func registryMethod(p *Pass, call *ast.CallExpr) (string, bool) {
	obj := p.callee(call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	var kind string
	switch fn.Name() {
	case "Counter":
		kind = "counter"
	case "Gauge":
		kind = "gauge"
	case "Histogram":
		kind = "histogram"
	default:
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" || named.Obj().Pkg() == nil {
		return "", false
	}
	if !pathHasSegment(named.Obj().Pkg().Path(), "internal/metrics") {
		return "", false
	}
	return kind, true
}
