// Benchmarks regenerating every table and figure of the paper's evaluation
// (Tables I–II, Figures 3 and 5–11) plus the design-choice ablations, one
// benchmark per artifact, and micro-benchmarks for the hot substrates.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Record a repo-wide baseline (see README "Performance"):
//
//	go test -run=^$ -bench=. -benchtime=1x ./... | go run ./cmd/benchrec > BENCH_$(date +%F).json
//
// Each experiment benchmark executes the full experiment per iteration (in
// quick mode, so the suite stays laptop-sized) and reports headline shape
// metrics via b.ReportMetric; the text tables themselves come from
// cmd/experiments.
package ares

import (
	"math/rand"
	"testing"

	"github.com/ares-cps/ares/internal/control"
	"github.com/ares-cps/ares/internal/dataflash"
	"github.com/ares-cps/ares/internal/ekf"
	"github.com/ares-cps/ares/internal/experiments"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/mavlink"
	"github.com/ares-cps/ares/internal/sensors"
	"github.com/ares-cps/ares/internal/stats"
	"io"
)

// benchSuite shares profile/monitor setup across benchmark iterations so the
// per-iteration cost is the experiment itself.
var benchSuite = experiments.NewSuite(42, true)

func BenchmarkTableI_KSVLInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.TotalALVs), "ALVs")
			b.ReportMetric(float64(res.LiveMessages), "live-msg-types")
		}
	}
}

func BenchmarkTableII_TSVLPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			total := 0
			for _, row := range res.Rows {
				total += row.TSVLCount
			}
			b.ReportMetric(float64(total), "TSVL-vars")
		}
	}
}

func BenchmarkFig3_RollESVLGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Edges)), "edges")
		}
	}
}

func BenchmarkFig5_CorrHeatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Roll.Names)), "variables")
			b.ReportMetric(float64(len(res.Clusters)), "clusters")
		}
	}
}

func BenchmarkFig6_ControlInvariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.ARES.MaxCI, "ares-max-err")
			b.ReportMetric(res.Naive.MaxCI, "naive-max-err")
			b.ReportMetric(res.ARES.MaxPathDev, "ares-dev-m")
		}
	}
}

func BenchmarkFig7_MLMonitor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.ARES.MaxML, "ares-max-dist")
			b.ReportMetric(res.Naive.MaxML, "naive-max-dist")
		}
	}
}

func BenchmarkFig8_EKFEstimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MaxIOutput, "max-I-output")
			b.ReportMetric(res.MaxResidualDeg, "max-residual-deg")
		}
	}
}

func BenchmarkFig9_ThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Sweep1[len(res.Sweep1)-1]
			b.ReportMetric(last.TPRate*100, "tp-at-min-threshold-%")
			b.ReportMetric(last.FPRate*100, "fp-at-min-threshold-%")
		}
	}
}

func BenchmarkFig10_UncontrolledFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig10(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, sc := range res.Scenarios {
				if sc.Name == "RL-trained" {
					b.ReportMetric(sc.MaxDev, "trained-dev-m")
				}
			}
		}
	}
}

func BenchmarkFig11_ControlledFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig11(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, sc := range res.Scenarios {
				if sc.Name == "RL-trained" {
					b.ReportMetric(sc.MinDist, "trained-min-dist-m")
				}
			}
		}
	}
}

func BenchmarkAblation_DesignChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblation(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.ClusteredModels), "clustered-models")
			b.ReportMetric(float64(res.FlatModels), "flat-models")
		}
	}
}

func BenchmarkCountermeasure_VariableMonitor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCountermeasure(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			caught := 0.0
			if res.Ramp.DetectedVar {
				caught = 1
			}
			b.ReportMetric(caught, "ramp-caught")
		}
	}
}

func BenchmarkFuzzBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFuzzBaseline(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.FuzzBoth), "fuzz-both")
			b.ReportMetric(float64(res.Trials), "fuzz-trials")
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkFirmwareTick measures one 400 Hz main-loop iteration of the full
// flight stack (sensors, EKF, SINS, cascade, mixer, physics).
func BenchmarkFirmwareTick(b *testing.B) {
	fw, err := firmware.New(firmware.Config{Sensors: sensors.Seeded(1)})
	if err != nil {
		b.Fatal(err)
	}
	if err := fw.Takeoff(10); err != nil {
		b.Fatal(err)
	}
	fw.RunFor(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Step()
	}
}

func BenchmarkEKFPredict(b *testing.B) {
	e := ekf.New()
	gyro := mathx.V3(0.1, -0.05, 0.02)
	accel := mathx.V3(0.2, 0.1, -9.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Predict(gyro, accel, 1.0/400)
	}
}

func BenchmarkPIDUpdate(b *testing.B) {
	p := control.NewPID(control.PIDConfig{
		KP: 0.135, KI: 0.09, KD: 0.0036, IMax: 0.25, FilterHz: 20, DT: 1.0 / 400,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Update(0.5, 0.45)
	}
}

func BenchmarkCorrelationMatrix24x3000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	series := make([][]float64, 24)
	for i := range series {
		series[i] = make([]float64, 3000)
		for j := range series[i] {
			series[i][j] = rng.NormFloat64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.CorrelationMatrixWorkers(series, 0)
	}
}

// BenchmarkPipelineAnalyze measures the public-facade Analyze stage (the
// per-run Algorithm 1 cost a campaign pays for every job) over a shared
// profile, at one-worker and default parallelism.
func BenchmarkPipelineAnalyze(b *testing.B) {
	runAt := func(b *testing.B, parallelism int) {
		p := NewPipeline(Config{
			Seed:     1,
			Missions: 2,
			Analysis: AnalysisOptions{Parallelism: parallelism},
		})
		if err := p.Profile(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Analyze(); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(len(p.TSVL())), "TSVL-vars")
			}
		}
	}
	b.Run("w1", func(b *testing.B) { runAt(b, 1) })
	b.Run("default", func(b *testing.B) { runAt(b, 0) })
}

func BenchmarkStepwiseAIC(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 2000
	preds := make(map[string][]float64, 8)
	y := make([]float64, n)
	for k := 0; k < 8; k++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		preds[string(rune('a'+k))] = xs
	}
	for i := range y {
		y[i] = 2*preds["a"][i] - preds["b"][i] + rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.StepwiseAICWorkers(y, preds, 1)
	}
}

func BenchmarkMAVLinkRoundTrip(b *testing.B) {
	msg := &mavlink.ParamSet{Name: "ATC_RAT_RLL_P", Value: 0.135}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := msg.Marshal()
		if _, err := mavlink.Decode(mavlink.Frame{
			MsgID: msg.ID(), Payload: payload,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataflashWrite(b *testing.B) {
	w := dataflash.NewWriter(io.Discard)
	vals := make([]float64, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Log("ATT", float64(i)/400, vals...); err != nil {
			b.Fatal(err)
		}
	}
}
