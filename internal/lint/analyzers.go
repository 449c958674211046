package lint

// All returns the repository's analyzer catalog in stable (alphabetical)
// order.
func All() []*Analyzer {
	return []*Analyzer{
		ctxFlow,
		detTaint,
		errClose,
		fpReassoc,
		goLeak,
		metricName,
		parBudget,
		seedArith,
		wireStrict,
	}
}

// ByName returns the subset of All matching the given names, in first-
// mention order with repeats collapsed; an unknown name returns nil and
// the offending name. The empty name is never a check: callers drop
// empty list entries before asking.
func ByName(names []string) ([]*Analyzer, string) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	seen := make(map[string]bool)
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, n
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, a)
		}
	}
	return out, ""
}
