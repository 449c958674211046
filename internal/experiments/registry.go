package experiments

import "fmt"

// Runner executes one named experiment against a suite.
type Runner func(*Suite) (Result, error)

// Entry is one registry row: an experiment id and its runner.
type Entry struct {
	ID  string
	Run Runner
}

// wrap lifts a concrete experiment function onto the Runner type. The
// explicit nil check matters: returning a nil *Fig3Result through the
// Result interface directly would produce a non-nil interface holding a
// nil pointer.
func wrap[T Result](f func(*Suite) (T, error)) Runner {
	return func(s *Suite) (Result, error) {
		r, err := f(s)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// Registry maps experiment ids to runners, in the paper's presentation
// order.
func Registry() []Entry {
	return []Entry{
		{"table1", wrap(RunTable1)},
		{"table2", wrap(RunTable2)},
		{"fig3", wrap(RunFig3)},
		{"fig5", wrap(RunFig5)},
		{"fig6", wrap(RunFig6)},
		{"fig7", wrap(RunFig7)},
		{"fig8", wrap(RunFig8)},
		{"fig9", wrap(RunFig9)},
		{"fig10", wrap(RunFig10)},
		{"fig11", wrap(RunFig11)},
		{"ablation", wrap(RunAblation)},
		{"countermeasure", wrap(RunCountermeasure)},
		{"crossplatform", wrap(runCrossPlatform)},
		{"fuzzbaseline", wrap(RunFuzzBaseline)},
	}
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
