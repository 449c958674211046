package main

import (
	"math"
	"reflect"
	"testing"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/serve"
)

// inputsOf renders every input a seed generates for its first rounds:
// the campaign spec hashes and the daemon submission order.
func inputsOf(t *testing.T, seed int64) []string {
	t.Helper()
	var out []string
	for r := 0; r < 4; r++ {
		out = append(out, serve.SpecHash(sweepSpec(pick(sweepSeeds, seed, r))))
		spec, err := fleetSpec(pick(fleetSeeds, seed, r))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, serve.SpecHash(spec))
		for _, b := range daemonPlan(seed, r) {
			spec, err := b.spec()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b.Record+"="+serve.SpecHash(spec))
		}
		out = append(out, pipelineDigestName(pick(pipelineSeeds, seed, r)))
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputsOf(t, 7), inputsOf(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	if reflect.DeepEqual(a, inputsOf(t, 8)) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
}

func TestDaemonPlanMix(t *testing.T) {
	plan := daemonPlan(3, 1)
	if len(plan) != daemonRoundSize {
		t.Fatalf("plan has %d submissions, want %d", len(plan), daemonRoundSize)
	}
	seen := make(map[assessBody]bool)
	repeats := 0
	for _, b := range plan {
		if seen[b] {
			repeats++
		}
		seen[b] = true
		if b.Seed != plan[0].Seed {
			t.Fatalf("body seeds differ within a round: %d vs %d", b.Seed, plan[0].Seed)
		}
	}
	if repeats != daemonRepeats {
		t.Fatalf("plan repeats %d bodies, want %d", repeats, daemonRepeats)
	}
}

func TestEveryPoolEntryIsPinned(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range sweepSeeds {
		names = append(names, sweepDigestName(s))
	}
	for _, s := range fleetSeeds {
		names = append(names, fleetDigestName(s))
	}
	for _, s := range pipelineSeeds {
		names = append(names, pipelineDigestName(s))
	}
	for r := 0; r < len(daemonSeeds); r++ {
		for _, b := range daemonPlan(1, r) {
			names = append(names, assessDigestName(b))
		}
	}
	for _, n := range names {
		if _, ok := d.byName[n]; !ok {
			t.Errorf("no pinned digest for %s", n)
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {75, 7.75}, {100, 10}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

// TestQuartilesMatchPython pins values from CPython's
// statistics.quantiles(xs, n=4), whose exclusive method extrapolates on
// tiny samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
		{[]float64{0.9, 1.3, 1.1, 1.0, 1.2, 0.95, 1.05, 1.15, 1.25, 1.4}, 0.9875, 1.2625},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spread(cases[0].xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// tracesFixture is `go tool pprof -traces` output for four samples.
const tracesFixture = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      40ms   github.com/ares-cps/ares/internal/ekf.matMulT
             github.com/ares-cps/ares/internal/ekf.(*EKF).Predict
             github.com/ares-cps/ares/internal/firmware.(*Firmware).Step
             github.com/ares-cps/ares/internal/firmware.(*Firmware).RunFor (inline)
             github.com/ares-cps/ares/internal/core.(*baseEnv).reset
-----------+-------------------------------------------------------
      30ms   github.com/ares-cps/ares/internal/sim.(*Quad).Step
             github.com/ares-cps/ares/internal/firmware.(*Firmware).Step
             github.com/ares-cps/ares/internal/core.(*baseEnv).advance
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             github.com/ares-cps/ares/internal/stats.olsGram
             github.com/ares-cps/ares/internal/stats.StepwiseAICWorkers.func1
             github.com/ares-cps/ares/internal/par.ForEach.func2
-----------+-------------------------------------------------------
      10ms   encoding/json.(*encodeState).marshal
             github.com/ares-cps/ares/internal/campaign.(*Store).Append
`

func TestAttributeFixture(t *testing.T) {
	samples, err := parseTraces(tracesFixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 || len(samples[0].frames) != 5 {
		t.Fatalf("parsed %d samples (first has %d frames), want 4 (5)", len(samples), len(samples[0].frames))
	}
	got := attribute(samples)
	want := map[string]float64{
		"cpu.ekf": 0.4, "cpu.sim": 0.3, "cpu.runtime": 0.2, "cpu.json": 0.1, "cpu.stats": 0,
		"stage.ekf_predict": 0.4, "stage.warmup": 0.4, "stage.rollout": 0.3,
		"stage.physics": 0.3, "stage.select": 0.2, "stage.store_append": 0.1, "stage.prune": 0,
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	for _, p := range cpuPackages {
		if _, ok := got["cpu."+p]; !ok {
			t.Errorf("cpu.%s missing from the attribution", p)
		}
	}
}

func TestRouteOf(t *testing.T) {
	for in, want := range map[string]string{
		"/v1/cpvs/ARES-CPV-001/assess":   "/v1/cpvs/{id}/assess",
		"/v1/results/abc123":             "/v1/results/{id}",
		"/v1/jobs/abc/events":            "/v1/jobs/{id}/events",
		"/v1/dist/lease":                 "/v1/dist/lease",
		"/v1/dist/campaigns/abc123/spec": "/v1/dist/campaigns/{id}/spec",
	} {
		if got := routeOf(in); got != want {
			t.Errorf("routeOf(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestFlippedRecordFailsDigest(t *testing.T) {
	recs := []campaign.Record{
		{Key: "line60x10/PIDR.INTEG/deviation/rl/none/t001", Status: campaign.StatusOK,
			Metrics: &campaign.Metrics{Deviation: 7.5, Success: true}},
		{Key: "line60x10/PIDR.INTEG/deviation/rl/none/t000", Status: campaign.StatusOK,
			Metrics: &campaign.Metrics{Deviation: 2.25}},
	}
	good, err := campaign.SortedBytes(recs)
	if err != nil {
		t.Fatal(err)
	}
	d := &digestTable{byName: map[string]string{"sweep/1": digestOf(good)}}
	if !d.check("sweep/1", good) {
		t.Fatal("the pinned artifact failed its own digest")
	}
	recs[1].Metrics = &campaign.Metrics{Deviation: 2.25, Success: true}
	flipped, err := campaign.SortedBytes(recs)
	if err != nil {
		t.Fatal(err)
	}
	if d.check("sweep/1", flipped) {
		t.Fatal("an artifact with a flipped record passed the digest check")
	}
	if d.check("sweep/2", good) {
		t.Fatal("an output with no pinned digest passed")
	}
}
