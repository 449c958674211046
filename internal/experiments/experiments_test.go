package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the experiment goldens with current output")

// quickSuite is shared across tests; expensive artifacts are cached inside.
var quickSuite = NewSuite(42, true)

func renderAndExport(t *testing.T, r Result) string {
	t.Helper()
	text, _ := export(t, r)
	return text
}

// export renders r's text and writes its CSV files, returning the text and
// the CSV paths in name order.
func export(t *testing.T, r Result) (string, []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("%s WriteText: %v", r.Name(), err)
	}
	if buf.Len() == 0 {
		t.Fatalf("%s rendered nothing", r.Name())
	}
	dir := filepath.Join(t.TempDir(), "csv")
	if err := r.WriteCSV(dir); err != nil {
		t.Fatalf("%s WriteCSV: %v", r.Name(), err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s exported no CSV files (%v)", r.Name(), err)
	}
	return buf.String(), files
}

// renderWithCSV is renderAndExport followed by every exported CSV file's
// bytes, so a golden pins the data behind the text (fig10's traces) too.
func renderWithCSV(t *testing.T, r Result) string {
	t.Helper()
	text, files := export(t, r)
	var buf strings.Builder
	buf.WriteString(text)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString("\n--- " + filepath.Base(f) + " ---\n")
		buf.Write(data)
	}
	return buf.String()
}

// checkGolden pins a result's rendered text at the quick suite's seed. The
// session-path experiments are deterministic end to end, so any byte of
// drift is a behaviour change. Regenerate deliberately with:
//
//	go test ./internal/experiments -run 'Shape|Runs' -update
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", name, golden, got, want)
	}
}

func TestTable1(t *testing.T) {
	res, err := RunTable1(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalALVs != 342 || len(res.Entries) != 40 {
		t.Errorf("inventory: %d types, %d ALVs", len(res.Entries), res.TotalALVs)
	}
	if res.LiveMessages < 15 {
		t.Errorf("live flight produced only %d message types", res.LiveMessages)
	}
	out := renderAndExport(t, res)
	if !strings.Contains(out, "342") {
		t.Error("rendered table missing the 342 total")
	}
}

func TestTable2(t *testing.T) {
	res, err := RunTable2(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.TSVLCount == 0 || row.Ratio >= 0.5 {
			t.Errorf("%s: TSVL %d ratio %.2f", row.Group.Name, row.TSVLCount, row.Ratio)
		}
	}
	renderAndExport(t, res)
}

func TestFig3AndFig5(t *testing.T) {
	f3, err := RunFig3(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Edges) < 5 {
		t.Errorf("only %d dependency edges", len(f3.Edges))
	}
	renderAndExport(t, f3)

	f5, err := RunFig5(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Roll.Names) < 10 {
		t.Errorf("heat map has %d variables", len(f5.Roll.Names))
	}
	if len(f5.Clusters) < 2 {
		t.Errorf("only %d clusters", len(f5.Clusters))
	}
	renderAndExport(t, f5)
}

// TestFig6Shape asserts the paper's headline result: ARES stays under the
// CI threshold while deviating the vehicle; the naive attack trips the
// detector immediately.
func TestFig6Shape(t *testing.T) {
	res, err := RunFig6(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benign.DetectedCI {
		t.Error("benign run alarmed")
	}
	if res.ARES.DetectedCI {
		t.Errorf("ARES detected (max %.0f)", res.ARES.MaxCI)
	}
	if !res.Naive.DetectedCI {
		t.Errorf("naive not detected (max %.0f)", res.Naive.MaxCI)
	}
	if res.ARES.MaxPathDev <= res.Benign.MaxPathDev {
		t.Errorf("ARES deviation %.1f not above benign %.1f",
			res.ARES.MaxPathDev, res.Benign.MaxPathDev)
	}
	if res.Naive.MaxCI < res.Threshold*2 {
		t.Errorf("naive max %.0f not clearly above threshold", res.Naive.MaxCI)
	}
	checkGolden(t, "fig6", renderAndExport(t, res))
}

// TestFig7Shape asserts the ML-monitor evasion: the gradual scaler attack
// stays inside the benign error bound while the naive attack exceeds it.
func TestFig7Shape(t *testing.T) {
	res, err := RunFig7(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benign.DetectedML {
		t.Errorf("benign hover alarmed (max %.4f)", res.Benign.MaxML)
	}
	if res.ARES.DetectedML {
		t.Errorf("ARES scaler attack detected (max %.4f)", res.ARES.MaxML)
	}
	if !res.Naive.DetectedML {
		t.Errorf("naive attack evaded ML monitor (max %.4f)", res.Naive.MaxML)
	}
	checkGolden(t, "fig7", renderAndExport(t, res))
}

// TestFig8Shape asserts the SAVIOR blind spot: the oversized-range
// controller-output attack destabilizes the vehicle while the sensed-vs-
// estimated residual stays quiet.
func TestFig8Shape(t *testing.T) {
	res, err := RunFig8(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	if res.EKFAlarm {
		t.Error("EKF residual monitor alarmed on a controller-level attack")
	}
	if res.MaxIOutput < 0.3 {
		t.Errorf("integrator output peaked at %.2f; the raised clamp had no effect",
			res.MaxIOutput)
	}
	if res.MaxResidualDeg > 10 {
		t.Errorf("sensed-vs-EKF residual reached %.1f deg; monitor should stay blind",
			res.MaxResidualDeg)
	}
	// The attack visibly disturbs the vehicle (big roll or crash).
	maxRoll := 0.0
	for _, p := range res.Attack.Trace {
		if a := absf(p.RollDeg); a > maxRoll {
			maxRoll = a
		}
	}
	if !res.Attack.Crashed && maxRoll < 10 {
		t.Errorf("attack had no physical effect (max roll %.1f deg)", maxRoll)
	}
	checkGolden(t, "fig8", renderAndExport(t, res))
}

// TestFig9Shape asserts the threshold-sweep trade-off: attack 2 is
// indistinguishable from benign while attack 1 separates, and lowering the
// threshold buys TP only at the cost of FP.
func TestFig9Shape(t *testing.T) {
	res, err := RunFig9(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BenignMax) != res.Trials {
		t.Fatalf("trials = %d", len(res.BenignMax))
	}
	// Attack 1 separates from benign on average.
	if meanOf(res.Attack1Max) <= meanOf(res.BenignMax) {
		t.Errorf("attack1 mean %.0f not above benign %.0f",
			meanOf(res.Attack1Max), meanOf(res.BenignMax))
	}
	// Attack 2 stays close to benign (within 50%).
	if meanOf(res.Attack2Max) > meanOf(res.BenignMax)*1.5 {
		t.Errorf("attack2 mean %.0f clearly separates from benign %.0f",
			meanOf(res.Attack2Max), meanOf(res.BenignMax))
	}
	// FP grows monotonically as the threshold decreases.
	for i := 1; i < len(res.Sweep1); i++ {
		if res.Sweep1[i].FPRate < res.Sweep1[i-1].FPRate {
			t.Errorf("FP not monotone: %v", res.Sweep1)
		}
	}
	checkGolden(t, "fig9", renderAndExport(t, res))
}

func TestFig10Runs(t *testing.T) {
	res, err := RunFig10(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 4 {
		t.Fatalf("scenarios = %d", len(res.Scenarios))
	}
	byName := map[string]Fig10Scenario{}
	for _, sc := range res.Scenarios {
		byName[sc.Name] = sc
		if len(sc.DevTrace) == 0 {
			t.Errorf("%s has no trace", sc.Name)
		}
	}
	// Even the quick-budget agent must beat the benign baseline's
	// deviation (the benign autopilot tracks the path tightly).
	if byName["RL-trained"].MaxDev <= byName["benign"].MaxDev {
		t.Errorf("trained deviation %.2f not above benign %.2f",
			byName["RL-trained"].MaxDev, byName["benign"].MaxDev)
	}
	checkGolden(t, "fig10", renderWithCSV(t, res))
}

func TestFig11Runs(t *testing.T) {
	res, err := RunFig11(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 4 {
		t.Fatalf("scenarios = %d", len(res.Scenarios))
	}
	byName := map[string]Fig11Scenario{}
	for _, sc := range res.Scenarios {
		byName[sc.Name] = sc
	}
	// The benign flight never comes close to the forbidden zone; any
	// manipulation strategy approaches it.
	if byName["benign"].MinDist < 5 {
		t.Errorf("benign min distance %.1f — world misconfigured", byName["benign"].MinDist)
	}
	if byName["constant-push"].MinDist >= byName["benign"].MinDist {
		t.Error("constant push did not approach the zone")
	}
	checkGolden(t, "fig11", renderWithCSV(t, res))
}

func TestAblationRuns(t *testing.T) {
	res, err := RunAblation(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	// Clustering never increases the model-selection work (usually it
	// cuts it sharply; with a cut that yields one response cluster the
	// two coincide).
	if res.ClusteredModels > res.FlatModels {
		t.Errorf("clustering increased models fitted: %d vs %d",
			res.ClusteredModels, res.FlatModels)
	}
	// Exhaustive search is optimal: its best AIC is never worse than
	// stepwise's (they usually coincide; on tiny clusters exhaustive can
	// even fit fewer candidate models than the add/remove walk).
	if res.ExhaustiveAIC > res.StepwiseAIC+1e-6 {
		t.Errorf("exhaustive best AIC %.2f worse than stepwise %.2f",
			res.ExhaustiveAIC, res.StepwiseAIC)
	}
	// Bounded stays stealthy; the equal-magnitude jump is detected.
	if res.BoundedDetected {
		t.Error("bounded manipulation detected")
	}
	checkGolden(t, "ablation", renderWithCSV(t, res))
}

func TestCountermeasureShape(t *testing.T) {
	res, err := RunCountermeasure(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benign.DetectedVar {
		t.Error("variable monitor false-alarmed on a benign flight")
	}
	// The ramp evades the system-level CI but is caught at the variable
	// level — the paper's proposed mitigation working as claimed.
	if res.Ramp.DetectedCI {
		t.Errorf("ramp detected by CI (max %.0f) — scenario drifted", res.Ramp.MaxCI)
	}
	if !res.Ramp.DetectedVar {
		t.Errorf("variable monitor missed the ramp (max excess %.2f)", res.Ramp.MaxVar)
	}
	// The alarm may fire on the manipulated cell itself or on the
	// integrator that absorbs its effect first — either is a watched
	// stabilizer cell.
	validTrips := map[string]bool{}
	for _, v := range res.Watched {
		validTrips[v] = true
	}
	if !validTrips[res.Ramp.AlarmedVariable] {
		t.Errorf("tripped variable %q not in watched set %v",
			res.Ramp.AlarmedVariable, res.Watched)
	}
	checkGolden(t, "countermeasure", renderAndExport(t, res))
}

func TestCrossPlatformShape(t *testing.T) {
	res, err := runCrossPlatform(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerVehicle) != 2 {
		t.Fatalf("vehicles = %d", len(res.PerVehicle))
	}
	for _, row := range res.PerVehicle {
		if !row.BenignOK {
			t.Errorf("%s: benign flight not clean", row.Vehicle)
		}
		if !row.RampEvaded {
			t.Errorf("%s: ramp detected", row.Vehicle)
		}
		if !row.NaiveDetected {
			t.Errorf("%s: naive attack evaded", row.Vehicle)
		}
	}
	checkGolden(t, "crossplatform", renderAndExport(t, res))
}

func TestFuzzBaselineShape(t *testing.T) {
	res, err := RunFuzzBaseline(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials < 10 {
		t.Fatalf("trials = %d", res.Trials)
	}
	// The time-dependent sequence achieves what single-point forcing
	// essentially cannot: effectiveness and stealth at once.
	if !res.ARESEffective || !res.ARESStealthy {
		t.Errorf("ARES ramp: effective=%v stealthy=%v dev=%.1f",
			res.ARESEffective, res.ARESStealthy, res.ARESDev)
	}
	// Fuzzing may stumble onto effective-and-stealthy single points, but
	// at a low rate; a majority would mean the baseline trivializes the
	// problem and the comparison is miscalibrated.
	if res.FuzzBoth*2 > res.Trials {
		t.Errorf("fuzzer found effective+stealthy in %d/%d trials",
			res.FuzzBoth, res.Trials)
	}
	checkGolden(t, "fuzzbaseline", renderAndExport(t, res))
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) != 14 {
		t.Fatalf("registry has %d entries", len(reg))
	}
	if _, err := Lookup("fig6"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
