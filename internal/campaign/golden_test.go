package campaign

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the executor record golden with current output")

// goldenRecords runs spec through the production executor and returns the
// canonical sorted artifact bytes.
func goldenRecords(t *testing.T, spec Spec) []byte {
	t.Helper()
	st, path := openTempStore(t)
	stats, err := (&Runner{Workers: 2, Execute: NewExecutor()}).Run(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OK != stats.Total {
		t.Fatalf("%s: %+v (want all ok)", spec.Name, stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	out, err := SortedBytes(recs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExecutorRecordsGolden pins the production executor's records for a
// tiny campaign covering both RL goals under every defense, for a stateful
// (PIDR.INTEG) and a per-cycle (CMD.Roll) target, plus the stealthy cells
// and one Q-learning cell. Every record is deterministic, so any byte of
// drift is a behaviour change. Regenerate deliberately with:
//
//	go test ./internal/campaign -run TestExecutorRecordsGolden -update
func TestExecutorRecordsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("real executor skipped in -short")
	}
	line := []MissionSpec{{Kind: "line", Size: 40, Alt: 10}}
	vars := []string{"PIDR.INTEG", "CMD.Roll"}
	defenses := []string{DefenseNone, DefenseCI, DefenseRecovery}
	spec := Spec{
		Name: "golden",
		Seed: 11,
		Sweeps: []Sweep{
			{Missions: line, Variables: vars, Goals: []string{GoalDeviation, GoalCrash}, Defenses: defenses},
			{Missions: line, Variables: vars, Attacks: []string{AttackStealthy}, Defenses: defenses},
		},
		Episodes: 2,
		MaxSteps: 10,
	}
	q := Spec{
		Name:      "golden-qlearning",
		Seed:      11,
		Missions:  line,
		Variables: []string{"PIDR.INTEG"},
		Episodes:  2,
		MaxSteps:  10,
		Learner:   "qlearning",
	}
	got := append(goldenRecords(t, spec), goldenRecords(t, q)...)

	golden := filepath.Join("testdata", "executor_records.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("executor records drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}
