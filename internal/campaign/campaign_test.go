package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/core"
	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/rl"
)

func testSpec() Spec {
	return Spec{
		Name:      "test",
		Seed:      7,
		Missions:  []MissionSpec{{Kind: "line", Size: 40, Alt: 10}},
		Variables: []string{"PIDR.INTEG", "CMD.Roll"},
		Goals:     []string{GoalDeviation},
		Defenses:  []string{DefenseNone},
		Trials:    2,
		Episodes:  2,
		MaxSteps:  8,
	}
}

// stubExecutor is a fast deterministic executor: metrics derive only from
// the job seed.
func stubExecutor(_ context.Context, job Job) (Metrics, error) {
	return Metrics{
		Deviation: float64(job.Seed%1000) / 100,
		Return:    float64(job.Trial),
		Success:   job.Seed%2 == 0,
	}, nil
}

func openTempStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "artifacts.jsonl")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, path
}

func TestSpecExpand(t *testing.T) {
	spec := testSpec()
	spec.Missions = append(spec.Missions, MissionSpec{Kind: "square", Size: 25, Alt: 10})
	spec.Defenses = []string{DefenseNone, DefenseCI}
	jobs := spec.Expand()
	want := 2 * 2 * 1 * 2 * 2
	if len(jobs) != want {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), want)
	}
	keys := make(map[string]bool)
	seeds := make(map[int64]string)
	for _, j := range jobs {
		if keys[j.Key] {
			t.Fatalf("duplicate key %s", j.Key)
		}
		keys[j.Key] = true
		if prev, dup := seeds[j.Seed]; dup {
			t.Fatalf("seed collision: %s and %s", prev, j.Key)
		}
		seeds[j.Seed] = j.Key
	}
	if k := jobs[0].Key; k != "line40x10/PIDR.INTEG/deviation/rl/none/t000" {
		t.Errorf("unexpected first key %q", k)
	}
}

// TestSpecExpandSeedStability: adding an axis value must not change the
// seeds of pre-existing cells (keys hash to seed streams, not indices).
func TestSpecExpandSeedStability(t *testing.T) {
	base := testSpec()
	grown := testSpec()
	grown.Variables = append([]string{"RATE.RDes"}, grown.Variables...)
	seedOf := func(jobs []Job) map[string]int64 {
		m := make(map[string]int64)
		for _, j := range jobs {
			m[j.Key] = j.Seed
		}
		return m
	}
	baseSeeds, grownSeeds := seedOf(base.Expand()), seedOf(grown.Expand())
	for k, s := range baseSeeds {
		if grownSeeds[k] != s {
			t.Fatalf("seed of %s changed after axis growth: %d -> %d", k, s, grownSeeds[k])
		}
	}
}

// TestJobTrialEpisodes pins the cost unit the fleet grants leases by: a
// stealthy cell flies one session, an RL cell trains Episodes episodes
// (core.DefaultEpisodes when unset) and replays once.
func TestJobTrialEpisodes(t *testing.T) {
	for _, tc := range []struct {
		job  Job
		want int
	}{
		{Job{Attack: AttackStealthy, Episodes: 12}, 1},
		{Job{Attack: AttackRL, Episodes: 12}, 13},
		{Job{Attack: AttackRL}, core.DefaultEpisodes + 1},
	} {
		if got := tc.job.TrialEpisodes(); got != tc.want {
			t.Errorf("%s with %d episodes: %d trial-episodes, want %d", tc.job.Attack, tc.job.Episodes, got, tc.want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := testSpec()
	bad.Goals = []string{"teleport"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown goal accepted")
	}
	bad = testSpec()
	bad.Missions = []MissionSpec{{Kind: "spiral", Size: 10, Alt: 10}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown mission kind accepted")
	}
	bad = testSpec()
	bad.Learner = "sarsa"
	if err := bad.Validate(); err == nil {
		t.Error("unknown learner accepted")
	}
	// The Q-table's observation bounds are deviation-only, at the top
	// level and inside sweeps alike.
	bad = testSpec()
	bad.Learner = core.LearnerQLearning
	bad.Goals = []string{GoalDeviation, GoalCrash}
	if err := bad.Validate(); err == nil {
		t.Error("qlearning × crash accepted")
	}
	bad = Spec{Learner: core.LearnerQLearning, Sweeps: []Sweep{{Goals: []string{GoalCrash}}}}
	if err := bad.Validate(); err == nil {
		t.Error("qlearning × crash accepted in a sweep")
	}
	ok := testSpec()
	ok.Learner = core.LearnerQLearning
	if err := ok.Validate(); err != nil {
		t.Errorf("qlearning × deviation rejected: %v", err)
	}
	if err := testSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestParseMission(t *testing.T) {
	m, err := ParseMission("line:60")
	if err != nil || m.Kind != "line" || m.Size != 60 || m.Alt != 10 {
		t.Fatalf("ParseMission(line:60) = %+v, %v", m, err)
	}
	m, err = ParseMission("square:25:15")
	if err != nil || m.Name() != "square25x15" {
		t.Fatalf("ParseMission(square:25:15) = %+v, %v", m, err)
	}
	for _, bad := range []string{"", "line", "line:x", "loop:10", "line:-5", "line:60:0"} {
		if _, err := ParseMission(bad); err == nil {
			t.Errorf("ParseMission(%q) accepted", bad)
		}
	}
}

func TestStoreRoundTripAndResume(t *testing.T) {
	st, path := openTempStore(t)
	rec := Record{Key: "a", Status: StatusOK, Metrics: &Metrics{Deviation: 1}}
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Record{Key: "b", Status: statusError, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	re, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Completed("a") {
		t.Error("ok record not marked completed on reload")
	}
	if re.Completed("b") {
		t.Error("error record counts as completed — failed jobs would never retry")
	}
	recs := re.Records()
	if len(recs) != 2 || recs[0].Metrics == nil || recs[0].Metrics.Deviation != 1 {
		t.Fatalf("reloaded records %+v", recs)
	}
}

func TestRunnerResumeSkipsCompleted(t *testing.T) {
	st, path := openTempStore(t)
	var calls atomic.Int64
	counting := func(ctx context.Context, j Job) (Metrics, error) {
		calls.Add(1)
		return stubExecutor(ctx, j)
	}
	r := &Runner{Workers: 2, Execute: counting}
	spec := testSpec()

	stats, err := r.Run(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OK != 4 || stats.Skipped != 0 {
		t.Fatalf("first run stats %+v", stats)
	}
	st.Close()

	re, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	calls.Store(0)
	stats, err = r.Run(context.Background(), spec, re)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 4 || stats.Executed() != 0 || calls.Load() != 0 {
		t.Fatalf("resume re-executed: stats %+v, calls %d", stats, calls.Load())
	}
}

func TestRunnerPanicRecovery(t *testing.T) {
	st, _ := openTempStore(t)
	exploding := func(ctx context.Context, j Job) (Metrics, error) {
		if j.Trial == 1 {
			panic("diverged")
		}
		return stubExecutor(ctx, j)
	}
	r := &Runner{Workers: 4, Execute: exploding}
	stats, err := r.Run(context.Background(), testSpec(), st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Panics != 2 || stats.OK != 2 {
		t.Fatalf("stats %+v", stats)
	}
	for _, rec := range st.Records() {
		if rec.Trial == 1 {
			if rec.Status != statusPanic || !strings.Contains(rec.Error, "diverged") {
				t.Fatalf("panic record %+v", rec)
			}
		}
	}
}

func TestRunnerCancellation(t *testing.T) {
	st, _ := openTempStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	blocking := func(_ context.Context, j Job) (Metrics, error) {
		started <- struct{}{}
		<-ctx.Done()
		return Metrics{}, nil
	}
	spec := testSpec()
	spec.Trials = 8 // 16 jobs, 2 workers: most never start
	r := &Runner{Workers: 2, Execute: blocking}
	done := make(chan RunStats, 1)
	go func() {
		stats, _ := r.Run(ctx, spec, st)
		done <- stats
	}()
	<-started
	<-started
	cancel()
	stats := <-done
	if stats.Executed() >= stats.Total {
		t.Fatalf("cancellation did not stop the fleet: %+v", stats)
	}
}

func sortedLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	sort.Strings(lines)
	return lines
}

// TestDeterminismAcrossWorkerCounts is the campaign reproducibility
// contract (and the race-detector stress test): the same spec through the
// real ARES executor at 1 worker and at N workers must write byte-identical
// sorted artifact records.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("real-executor determinism test skipped in -short")
	}
	spec := testSpec()
	spec.Trials = 4 // 8 real jobs per run
	spec.Episodes = 2
	spec.MaxSteps = 6

	run := func(workers int) []string {
		st, path := openTempStore(t)
		r := &Runner{Workers: workers}
		stats, err := r.Run(context.Background(), spec, st)
		if err != nil {
			t.Fatal(err)
		}
		if stats.OK != stats.Total {
			t.Fatalf("workers=%d: %+v (want all ok)", workers, stats)
		}
		st.Close()
		return sortedLines(t, path)
	}

	seq := run(1)
	par := run(4)
	if len(seq) != len(par) {
		t.Fatalf("record counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("record %d differs:\n  1 worker: %s\n  4 workers: %s", i, seq[i], par[i])
		}
	}
}

func TestAggregate(t *testing.T) {
	recs := []Record{
		{Key: "m/a/deviation/none/t000", Mission: "m", Variable: "a", Goal: "deviation",
			Defense: "none", Status: StatusOK,
			Metrics: &Metrics{Deviation: 4, Success: true}},
		{Key: "m/a/deviation/ci/t000", Mission: "m", Variable: "a", Goal: "deviation",
			Defense: "ci", Status: StatusOK,
			Metrics: &Metrics{Deviation: 2, Detected: true}},
		// A failed attempt later retried successfully: only the last
		// record per key counts.
		{Key: "m/b/deviation/none/t000", Mission: "m", Variable: "b", Goal: "deviation",
			Defense: "none", Status: statusError, Error: "boom"},
		{Key: "m/b/deviation/none/t000", Mission: "m", Variable: "b", Goal: "deviation",
			Defense: "none", Status: StatusOK,
			Metrics: &Metrics{Deviation: 8, Success: true}},
	}
	s := Aggregate("unit", recs)
	if s.Records != 3 || s.Failures != 0 {
		t.Fatalf("records=%d failures=%d", s.Records, s.Failures)
	}
	find := func(axis, value string) AxisCell {
		for _, c := range s.Cells {
			if c.Axis == axis && c.Value == value {
				return c
			}
		}
		t.Fatalf("cell %s=%s missing", axis, value)
		return AxisCell{}
	}
	if c := find("defense", "none"); c.Jobs != 2 || c.SuccessRate != 1 || c.MaxDeviation != 8 {
		t.Errorf("defense/none cell %+v", c)
	}
	if c := find("defense", "ci"); c.DetectionRate != 1 || c.SuccessRate != 0 {
		t.Errorf("defense/ci cell %+v", c)
	}
	if c := find("variable", "b"); c.OK != 1 || c.MeanDeviation != 8 {
		t.Errorf("variable/b cell %+v", c)
	}

	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Campaign unit — 3 jobs") {
		t.Errorf("summary text:\n%s", buf.String())
	}
	dir := t.TempDir()
	if err := s.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "campaign_summary.csv")); err != nil {
		t.Error(err)
	}
}

// TestExecutorSmoke runs one real deviation job and one real crash job
// through the production executor.
func TestExecutorSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real executor skipped in -short")
	}
	exec := NewExecutor()
	jobs := Spec{
		Seed:      3,
		Missions:  []MissionSpec{{Kind: "line", Size: 40, Alt: 10}},
		Variables: []string{"CMD.Roll"},
		Goals:     []string{GoalDeviation, GoalCrash},
		Episodes:  2,
		MaxSteps:  6,
	}.Expand()
	if len(jobs) != 2 {
		t.Fatalf("expanded %d jobs", len(jobs))
	}
	for _, j := range jobs {
		m, err := exec(context.Background(), j)
		if err != nil {
			t.Fatalf("%s: %v", j.Key, err)
		}
		if m.Deviation < 0 {
			t.Errorf("%s: negative deviation %f", j.Key, m.Deviation)
		}
	}
}

func TestExecutorRejectsUnknowns(t *testing.T) {
	exec := NewExecutor()
	if _, err := exec(context.Background(), Job{
		Mission: MissionSpec{Kind: "line", Size: 40, Alt: 10},
		Goal:    "teleport", Variable: "PIDR.INTEG",
	}); err == nil {
		t.Error("unknown goal accepted")
	}
	if _, err := exec(context.Background(), Job{
		Mission: MissionSpec{Kind: "spiral", Size: 40, Alt: 10},
		Goal:    GoalDeviation, Variable: "PIDR.INTEG",
	}); err == nil {
		t.Error("unknown mission accepted")
	}
	// A learner Validate would reject fails every RL goal at run time
	// too, instead of silently training REINFORCE on crash jobs.
	for _, c := range []struct{ goal, learner string }{
		{GoalDeviation, "sarsa"},
		{GoalCrash, "sarsa"},
		{GoalCrash, core.LearnerQLearning},
	} {
		if _, err := exec(context.Background(), Job{
			Mission: MissionSpec{Kind: "line", Size: 40, Alt: 10},
			Goal:    c.goal, Variable: "PIDR.INTEG", Learner: c.learner,
			Episodes: 1, MaxSteps: 1,
		}); err == nil {
			t.Errorf("%s × %s accepted", c.learner, c.goal)
		}
	}
}

// TestQLearningReplayReportsDetection: the Q-learning branch of exploit
// training once dropped the replay's detection, so a Q-learning cell
// under the CI defense counted as a stealthy success. With an
// always-alarming detector the replay must report the detection and the
// cell must fail even at a zero success threshold.
func TestQLearningReplayReportsDetection(t *testing.T) {
	ci := defense.NewControlInvariants()
	trace := make([]defense.CISample, 64)
	for i := range trace {
		trace[i] = defense.CISample{Roll: 0.001 * float64(i%3)}
	}
	if err := ci.Identify(trace); err != nil {
		t.Fatal(err)
	}
	ci.Threshold = 0

	env, err := core.NewDeviationEnv(core.EnvConfig{
		Variable: "PIDR.INTEG",
		Seed:     530,
		Mission:  firmware.LineMission(30, 10),
		Monitors: attack.Monitors{CI: ci},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.TrainExploit(env, core.ExploitConfig{Episodes: 2, MaxSteps: 10, Seed: 1, Learner: core.LearnerQLearning})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replay.Detected {
		t.Fatal("qlearning replay under an always-alarming detector reports no detection")
	}
	m := metricsOf(Job{Goal: GoalDeviation, Learner: core.LearnerQLearning, SuccessDeviation: 0}, res)
	if !m.Detected || m.Success {
		t.Errorf("metrics: detected %v success %v, want a detected failure", m.Detected, m.Success)
	}
}

// runSorted runs spec through r into a fresh store and returns the
// store's sorted record lines, failing unless every job finished ok.
func runSorted(t *testing.T, r *Runner, spec Spec) []string {
	t.Helper()
	st, path := openTempStore(t)
	stats, err := r.Run(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OK != stats.Total {
		t.Fatalf("seed %d: %+v (want all ok)", spec.Seed, stats)
	}
	st.Close()
	return sortedLines(t, path)
}

// TestExecutorCalibrationIndependentOfOrder guards the monitor cache: one
// executor (as a daemon or fleet worker holds) serving a campaign with seed
// A and then one with seed B on the same mission must give B exactly the
// records a fresh executor gives it. A cache keyed by mission name alone
// handed B the monitor calibrated from A's seed.
func TestExecutorCalibrationIndependentOfOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("real executor skipped in -short")
	}
	spec := func(seed int64) Spec {
		return Spec{
			Seed:      seed,
			Missions:  []MissionSpec{{Kind: "line", Size: 40, Alt: 10}},
			Variables: []string{"PIDR.INTEG"},
			Attacks:   []string{AttackStealthy},
			Defenses:  []string{DefenseCI},
			Trials:    2,
			MaxSteps:  40,
		}
	}
	shared := &Runner{Workers: 1, Execute: NewExecutor()}
	runSorted(t, shared, spec(1))
	got := runSorted(t, shared, spec(2))
	want := runSorted(t, &Runner{Workers: 1, Execute: NewExecutor()}, spec(2))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records depend on what the executor ran before:\nafter seed 1: %q\nfresh:        %q", got, want)
	}
}

// TestBatchExecutorRecordEquivalence pins the deprecated NewBatchExecutor
// pair: a Runner handed it, as older embedders still do, writes the same
// records as one handed NewExecutor.
func TestBatchExecutorRecordEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("real executor skipped in -short")
	}
	spec := Spec{
		Seed:      21,
		Missions:  []MissionSpec{{Kind: "line", Size: 40, Alt: 10}},
		Variables: []string{"CMD.Roll"},
		Trials:    2,
		Episodes:  2,
		MaxSteps:  6,
	}
	want := runSorted(t, &Runner{Workers: 2, Execute: NewExecutor()}, spec)
	exec, group := NewBatchExecutor()
	got := runSorted(t, &Runner{Workers: 2, Execute: exec, ExecuteGroup: group}, spec)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NewBatchExecutor records differ from NewExecutor:\ngot:  %q\nwant: %q", got, want)
	}
}

func TestNormalizedAppliesDefaults(t *testing.T) {
	n := Spec{Seed: 5}.Normalized()
	if len(n.Missions) == 0 || len(n.Variables) == 0 || len(n.Goals) == 0 ||
		len(n.Defenses) == 0 || n.Trials != 1 || n.SuccessDeviation != 5 {
		t.Errorf("Normalized left defaults unapplied: %+v", n)
	}
	// Normalizing an already-normalized spec is a fixed point, which is
	// what content-addressed dedup in the daemon relies on.
	if got := n.Normalized(); !reflect.DeepEqual(got, n) {
		t.Errorf("Normalized not idempotent: %+v vs %+v", got, n)
	}
}

func TestValidateRejectsNonPositiveMission(t *testing.T) {
	s := Spec{Missions: []MissionSpec{{Kind: "line", Size: -4, Alt: 10}}}
	if err := s.Validate(); err == nil {
		t.Error("negative mission size validated")
	}
	s = Spec{Missions: []MissionSpec{{Kind: "square", Size: 20, Alt: 0}}}
	if err := s.Validate(); err == nil {
		t.Error("zero-altitude mission validated")
	}
}

// TestMetricsOfNonFiniteReturns guards the JSON artifact against the
// paper's infinite terminal rewards: Equation 4 scores a detected episode
// -Inf (and Equation 5 scores zone contact +Inf), so a cell whose every
// episode alarms under the CI defense produces an infinite eval/best
// return. encoding/json rejects ±Inf, which used to abort the whole
// campaign at store.Append.
func TestMetricsOfNonFiniteReturns(t *testing.T) {
	res := &core.ExploitResult{
		Replay: &core.Rollout{Return: math.Inf(-1), Detected: true},
		Train:  &rl.TrainResult{BestReturn: math.Inf(1)},
	}
	m := metricsOf(Job{Goal: GoalDeviation}, res)
	if m.Return != -math.MaxFloat64 || m.BestReturn != math.MaxFloat64 {
		t.Fatalf("returns not clamped: %v / %v", m.Return, m.BestReturn)
	}
	if !m.Detected {
		t.Fatal("detection event lost")
	}
	if _, err := json.Marshal(Record{Key: "k", Status: StatusOK, Metrics: &m}); err != nil {
		t.Fatalf("record with clamped returns must marshal: %v", err)
	}
	if got := finiteReturn(math.NaN()); got != 0 {
		t.Fatalf("NaN return = %v, want 0", got)
	}
	if got := finiteReturn(2.5); got != 2.5 {
		t.Fatalf("finite return altered: %v", got)
	}
}
