package lint

import (
	"go/ast"
)

// parBudget keeps one machine-wide concurrency budget: every worker
// count flows through internal/par (Workers, Inner, Budget), never raw
// runtime.GOMAXPROCS/NumCPU arithmetic. Raw reads are how nested pools
// end up multiplying — W jobs × GOMAXPROCS analysis goroutines — instead
// of splitting the budget. internal/par itself is the one place allowed
// to read the process budget.
var parBudget = &Analyzer{
	Name: "parbudget",
	Doc:  "worker counts come from internal/par helpers, not raw GOMAXPROCS/NumCPU",
	Run:  runParBudget,
}

func runParBudget(p *Pass) {
	if pathHasSegment(p.Pkg.Path, "internal/par") {
		return
	}
	p.inspect(func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Pkg.Info.Uses[id]
		if isPkgObj(obj, "runtime", "GOMAXPROCS") || isPkgObj(obj, "runtime", "NumCPU") {
			p.Reportf(id.Pos(), "raw runtime.%s — size worker pools through internal/par (par.Workers / par.Inner / par.Budget) so one machine-wide budget governs nested pools", obj.Name())
		}
		return true
	})
}
