package core

import (
	"bytes"
	"testing"

	"github.com/ares-cps/ares/internal/dataflash"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/sensors"
)

// recordTestLog flies a logged mission and parses the dataflash back.
func recordTestLog(t *testing.T) *dataflash.Log {
	t.Helper()
	var buf bytes.Buffer
	w := dataflash.NewWriter(&buf)
	fw, err := firmware.Launch(firmware.Config{Sensors: sensors.Seeded(600), LogWriter: w},
		firmware.SquareMission(25, 10), 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90*400 && !fw.Mission().Complete(); i++ {
		fw.Step()
	}
	if crashed, reason := fw.Quad().Crashed(); crashed {
		t.Fatalf("logged flight crashed: %s", reason)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := dataflash.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestProfileFromLog(t *testing.T) {
	log := recordTestLog(t)
	prof, err := ProfileFromLog(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Names) < 50 {
		t.Errorf("extracted %d variables from the log", len(prof.Names))
	}
	// All series aligned.
	n := prof.Samples()
	for _, name := range prof.Names {
		if len(prof.Series[name]) != n {
			t.Fatalf("series %s length %d != %d", name, len(prof.Series[name]), n)
		}
	}
	// The inferred rate is the 16 Hz logging cadence.
	if prof.SampleHz < 12 || prof.SampleHz > 20 {
		t.Errorf("inferred rate = %.1f Hz, want ~16", prof.SampleHz)
	}
	// Dataflash visibility: the logged dynamics exist, the memory-only
	// intermediates do not — the gap the ESVL expansion closes.
	if _, ok := prof.Series["ATT.Roll"]; !ok {
		t.Error("ATT.Roll missing from log profile")
	}
	if _, ok := prof.Series["PIDR.INTEG"]; ok {
		t.Error("memory-only intermediate leaked into the dataflash profile")
	}
}

// TestLogOnlyAnalysisLosesIntermediates runs Algorithm 1 on the log-visible
// subset of the roll ESVL: it must work, but the selected variables can only
// come from the KSVL — quantifying what the paper's expansion adds.
func TestLogOnlyAnalysisLosesIntermediates(t *testing.T) {
	log := recordTestLog(t)
	prof, err := ProfileFromLog(log)
	if err != nil {
		t.Fatal(err)
	}
	names, series, missing := prof.SeriesFor(RollESVL())
	if len(missing) < 5 {
		t.Errorf("only %d roll intermediates missing from the log; expected the"+
			" memory-only block (INTEG, INPUT, DERIV, OUT, CMD.Roll…)", len(missing))
	}
	if len(names) < 10 {
		t.Fatalf("log-visible roll subset too small: %d", len(names))
	}
	// The log-visible subset still analyzes cleanly.
	rep, err := analyzeSeries(names, series)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.TSVL {
		for _, m := range missing {
			if v == m {
				t.Errorf("selected variable %s was not in the log", v)
			}
		}
	}
}

// analyzeSeries runs GenerateTSVL for the roll response over ad-hoc series.
func analyzeSeries(names []string, series [][]float64) (*RollAnalysis, error) {
	prof := &Profile{Series: make(map[string][]float64)}
	prof.Names = names
	for i, n := range names {
		prof.Series[n] = series[i]
	}
	prof.MissionLens = []int{len(series[0])}
	return AnalyzeRoll(prof, AnalysisOptions{})
}

func TestProfileFromLogErrors(t *testing.T) {
	empty := &dataflash.Log{}
	if _, err := ProfileFromLog(empty); err == nil {
		t.Error("empty log accepted")
	}
}
