package core

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/sensors"
	"github.com/ares-cps/ares/internal/sim"
)

func TestStandardGroupsMatchTableII(t *testing.T) {
	groups := StandardGroups()
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	want := map[string][3]int{
		"PID":  {28, 36, 64},
		"Sqrt": {9, 12, 21},
		"SINS": {14, 19, 33},
	}
	for _, g := range groups {
		w, ok := want[g.Name]
		if !ok {
			t.Errorf("unexpected group %s", g.Name)
			continue
		}
		if len(g.KSVL) != w[0] {
			t.Errorf("%s KSVL = %d, want %d", g.Name, len(g.KSVL), w[0])
		}
		if len(g.Added) != w[1] {
			t.Errorf("%s Added = %d, want %d", g.Name, len(g.Added), w[1])
		}
		if len(g.ESVL()) != w[2] {
			t.Errorf("%s ESVL = %d, want %d", g.Name, len(g.ESVL()), w[2])
		}
		if len(g.Responses) == 0 {
			t.Errorf("%s has no response variables", g.Name)
		}
	}
}

func TestGroupVariablesExistInFirmware(t *testing.T) {
	fw, err := firmware.New(firmware.Config{Sensors: sensors.Seeded(1)})
	if err != nil {
		t.Fatal(err)
	}
	check := func(names []string, label string) {
		seen := make(map[string]bool)
		for _, n := range names {
			if seen[n] {
				t.Errorf("%s: duplicate variable %s", label, n)
			}
			seen[n] = true
			if _, ok := fw.Vars().Lookup(n); !ok {
				t.Errorf("%s: variable %s not registered in firmware", label, n)
			}
		}
	}
	for _, g := range StandardGroups() {
		check(g.ESVL(), g.Name)
		check(g.Responses, g.Name+" responses")
	}
	roll := RollESVL()
	if len(roll) != 24 {
		t.Errorf("roll ESVL has %d variables, want 24 (Figure 5)", len(roll))
	}
	check(roll, "roll")
}

func TestGroupByName(t *testing.T) {
	g, err := GroupByName("PID")
	if err != nil || g.Name != "PID" {
		t.Errorf("GroupByName(PID) = %v, %v", g.Name, err)
	}
	if _, err := GroupByName("NOPE"); err == nil {
		t.Error("unknown group accepted")
	}
}

// collectTestProfile flies a small profiling run shared by analysis tests.
func collectTestProfile(t *testing.T) *Profile {
	t.Helper()
	prof, err := CollectProfile(ProfileConfig{
		Mission:  firmware.SquareMission(25, 10),
		Missions: 2,
		Seed:     100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestCollectProfile(t *testing.T) {
	prof := collectTestProfile(t)
	if len(prof.MissionLens) != 2 {
		t.Fatalf("missions = %d", len(prof.MissionLens))
	}
	if prof.Samples() < 500 {
		t.Errorf("samples = %d, want a few hundred (16 Hz missions)", prof.Samples())
	}
	// Every registered variable is traced with consistent length.
	if len(prof.Names) < 100 {
		t.Errorf("traced %d variables", len(prof.Names))
	}
	for _, n := range prof.Names {
		if len(prof.Series[n]) != prof.Samples() {
			t.Fatalf("series %s has %d samples, want %d",
				n, len(prof.Series[n]), prof.Samples())
		}
	}
	// The roll series is alive (the vehicle banks during the mission).
	rolls := prof.Series["ATT.Roll"]
	maxAbs := 0.0
	for _, v := range rolls {
		if a := mathx.Deg(v); a > maxAbs {
			maxAbs = a
		} else if -a > maxAbs {
			maxAbs = -a
		}
	}
	if maxAbs < 2 {
		t.Errorf("max |roll| during mission = %.1f deg, want > 2", maxAbs)
	}
}

func TestCollectProfileUnknownVariable(t *testing.T) {
	_, err := CollectProfile(ProfileConfig{
		Mission:   firmware.LineMission(20, 10),
		Missions:  1,
		Seed:      1,
		Variables: []string{"NOPE.VAR"},
	})
	if err == nil {
		t.Error("unknown variable accepted")
	}
}

// TestCollectProfileParallelEquivalence flies the same five missions on
// pools of several widths: names, mission lengths and every sample's bits
// must match the one-worker profile.
func TestCollectProfileParallelEquivalence(t *testing.T) {
	collect := func(workers int) *Profile {
		prof, err := CollectProfile(ProfileConfig{
			Mission:     firmware.LineMission(20, 10),
			Missions:    5,
			Seed:        7,
			Parallelism: workers,
		})
		if err != nil {
			t.Fatalf("w%d: %v", workers, err)
		}
		return prof
	}
	want := collect(1)
	if len(want.MissionLens) != 5 || want.Samples() == 0 {
		t.Fatalf("reference profile: mission lengths %v", want.MissionLens)
	}
	for _, workers := range []int{2, 5, 8} {
		got := collect(workers)
		if !slices.Equal(got.Names, want.Names) {
			t.Fatalf("w%d: names differ", workers)
		}
		if !slices.Equal(got.MissionLens, want.MissionLens) {
			t.Fatalf("w%d: mission lengths %v, want %v", workers, got.MissionLens, want.MissionLens)
		}
		if len(got.Series) != len(want.Series) {
			t.Fatalf("w%d: %d series, want %d", workers, len(got.Series), len(want.Series))
		}
		for _, name := range want.Names {
			g, w := got.Series[name], want.Series[name]
			if len(g) != len(w) {
				t.Fatalf("w%d: %s has %d samples, want %d", workers, name, len(g), len(w))
			}
			for i := range w {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Fatalf("w%d: %s[%d] = %v, want %v", workers, name, i, g[i], w[i])
				}
			}
		}
	}
}

// TestCollectProfileErrorAnyWidth checks that a failing profile reports
// the same error at every pool width: every mission fails on the bad
// variable list, and the lowest-numbered one's error wins.
func TestCollectProfileErrorAnyWidth(t *testing.T) {
	for _, tc := range []struct {
		vars []string
		want string
	}{
		{[]string{"ATT.Roll", "NOPE.VAR"}, `core: unknown variable "NOPE.VAR"`},
		{[]string{"ATT.Roll", "ATT.Roll"}, `core: variable "ATT.Roll" listed twice`},
	} {
		for _, workers := range []int{1, 2, 5, 8} {
			_, err := CollectProfile(ProfileConfig{
				Mission:     firmware.LineMission(20, 10),
				Missions:    5,
				Seed:        1,
				Variables:   tc.vars,
				Parallelism: workers,
			})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%v w%d: error %v, want %q", tc.vars, workers, err, tc.want)
			}
		}
	}
}

func TestAnalyzeAllGroupsProducesTableII(t *testing.T) {
	prof := collectTestProfile(t)
	rows, err := AnalyzeAllGroups(prof, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row.Missing) > 0 {
			t.Errorf("%s missing variables: %v", row.Group.Name, row.Missing)
		}
		if row.TSVLCount == 0 {
			t.Errorf("%s selected no target variables", row.Group.Name)
		}
		// The selection is a real reduction, as in Table II.
		if row.Ratio <= 0 || row.Ratio >= 0.5 {
			t.Errorf("%s selection ratio = %.1f%%, want a sharp reduction",
				row.Group.Name, row.Ratio*100)
		}
		// TSVL entries come from the ESVL and never include responses.
		esvl := make(map[string]bool)
		for _, v := range row.Group.ESVL() {
			esvl[v] = true
		}
		for _, v := range row.TSVL {
			if !esvl[v] {
				t.Errorf("%s TSVL entry %s not in ESVL", row.Group.Name, v)
			}
			for _, resp := range row.Group.Responses {
				if v == resp {
					t.Errorf("%s TSVL contains response %s", row.Group.Name, v)
				}
			}
		}
	}
}

func TestAnalyzeRoll(t *testing.T) {
	prof := collectTestProfile(t)
	roll, err := AnalyzeRoll(prof, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(roll.Names) < 8 {
		t.Fatalf("kept %d roll variables", len(roll.Names))
	}
	if len(roll.Order) != len(roll.Names) {
		t.Errorf("leaf order %d != names %d", len(roll.Order), len(roll.Names))
	}
	if len(roll.TSVL) == 0 {
		t.Error("empty roll TSVL")
	}
	// The Figure 3 property: the roll angle correlates strongly with its
	// commanded value (the backbone edge of the dependency graph).
	idxRoll, idxDes := -1, -1
	for i, n := range roll.Names {
		switch n {
		case "ATT.Roll":
			idxRoll = i
		case "ATT.DesRoll":
			idxDes = i
		}
	}
	if idxRoll < 0 || idxDes < 0 {
		t.Fatal("roll/desroll missing from kept set")
	}
	if r := roll.Corr[idxRoll][idxDes]; r < 0.5 {
		t.Errorf("corr(Roll, DesRoll) = %.3f, want strong dependency", r)
	}
	// Edges are sorted by |r| descending.
	edges := roll.CorrelationEdges(0.3)
	if len(edges) == 0 {
		t.Fatal("no correlation edges above 0.3")
	}
	for i := 1; i < len(edges); i++ {
		if absf(edges[i].R) > absf(edges[i-1].R)+1e-12 {
			t.Fatalf("edges not sorted at %d", i)
		}
	}
}

func TestReportRendering(t *testing.T) {
	prof := collectTestProfile(t)
	rows, err := AnalyzeAllGroups(prof, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	roll, err := AnalyzeRoll(prof, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{
		ProfileSamples:  prof.Samples(),
		ProfileMissions: len(prof.MissionLens),
		Groups:          rows,
		Roll:            roll,
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table II", "PID", "Sqrt", "SINS", "Ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	var heat bytes.Buffer
	if err := roll.HeatmapText(&heat); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(heat.String(), "█") {
		t.Error("heat map has no full-correlation cells (diagonal)")
	}
}

func TestDeviationEnvBasics(t *testing.T) {
	env, err := NewDeviationEnv(EnvConfig{
		Variable: "PIDR.INTEG",
		Seed:     200,
		Mission:  firmware.LineMission(40, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := env.Reset()
	if len(obs) != env.ObservationSize() {
		t.Fatalf("obs size %d != %d", len(obs), env.ObservationSize())
	}
	lo, hi := env.ActionBounds()
	if lo >= hi {
		t.Fatalf("bounds %v %v", lo, hi)
	}
	// Max positive manipulation for 20 actions must deviate the vehicle
	// more than no manipulation.
	devAttack := 0.0
	for i := 0; i < 20; i++ {
		if _, _, done := env.Step(hi); done {
			break
		}
	}
	devAttack = env.distance()

	env2, err := NewDeviationEnv(EnvConfig{
		Variable: "PIDR.INTEG",
		Seed:     200,
		Mission:  firmware.LineMission(40, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	env2.Reset()
	for i := 0; i < 20; i++ {
		if _, _, done := env2.Step(0); done {
			break
		}
	}
	devIdle := env2.distance()
	if devAttack <= devIdle {
		t.Errorf("attack deviation %.2f not above idle %.2f", devAttack, devIdle)
	}
}

func TestDeviationEnvRejectsBadTarget(t *testing.T) {
	if _, err := NewDeviationEnv(EnvConfig{Variable: "IMU.GyrX"}); err == nil {
		t.Error("cross-region target accepted (IMU lives in drivers)")
	}
	if _, err := NewDeviationEnv(EnvConfig{}); err == nil {
		t.Error("missing variable accepted")
	}
}

// TestEnvsRejectBadConfig: both environments refuse at construction what
// reset could not fly — an empty mission — and a recovery guard that
// attack.RunSession would reject, instead of silently training against a
// guard that does nothing.
func TestEnvsRejectBadConfig(t *testing.T) {
	guard := func(mut func(*defense.RecoveryGuard)) *defense.RecoveryGuard {
		g := defense.NewRecoveryGuard(defense.NewControlInvariants())
		mut(g)
		return g
	}
	obstacle := sim.Obstacle{Name: "wall", Box: mathx.AABB{Min: mathx.V3(35, 8, -20), Max: mathx.V3(45, 12, 0)}}
	for _, c := range []struct {
		name string
		cfg  EnvConfig
		ok   bool
	}{
		{"valid guard", EnvConfig{Recovery: guard(func(*defense.RecoveryGuard) {})}, true},
		{"empty mission", EnvConfig{Mission: firmware.NewMission(nil)}, false},
		{"guard without detector", EnvConfig{Recovery: guard(func(g *defense.RecoveryGuard) { g.Detector = nil })}, false},
		{"guard clamp zero", EnvConfig{Recovery: guard(func(g *defense.RecoveryGuard) { g.ClampAngle = 0 })}, false},
		{"guard decay one", EnvConfig{Recovery: guard(func(g *defense.RecoveryGuard) { g.IntegratorDecay = 1 })}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Variable = "PIDR.INTEG"
			if _, err := NewDeviationEnv(c.cfg); (err == nil) != c.ok {
				t.Errorf("deviation env: err = %v, want ok = %v", err, c.ok)
			}
			if _, err := NewCrashEnv(c.cfg, obstacle); (err == nil) != c.ok {
				t.Errorf("crash env: err = %v, want ok = %v", err, c.ok)
			}
		})
	}
}

func TestCrashEnvBasics(t *testing.T) {
	// The forbidden zone beside the mission's final loiter point (40, 0):
	// a standing +roll command offset drifts the vehicle east (+Y) into it.
	env, err := NewCrashEnv(EnvConfig{
		Variable:  "CMD.Roll",
		MaxAction: 0.6,
		Seed:      300,
		Mission:   firmware.LineMission(40, 10),
	}, ForbiddenZone(40, 10))
	if err != nil {
		t.Fatal(err)
	}
	obs := env.Reset()
	if len(obs) != env.ObservationSize() {
		t.Fatalf("obs size %d", len(obs))
	}
	d0 := env.distance()
	if d0 <= 0 {
		t.Fatalf("starting inside the obstacle: %v", d0)
	}
	// A standing max-roll offset produces an orbit that swings close by
	// the wall; modulating the offset to actually hit it is the learning
	// task, so the open-loop check only asserts a close approach (or a
	// direct hit, if the orbit grazes the box).
	_, hi := env.ActionBounds()
	minDist := d0
	for i := 0; i < 80; i++ {
		_, reward, done := env.Step(hi)
		if d := env.distance(); d < minDist {
			minDist = d
		}
		if done {
			if math.IsInf(reward, 1) {
				minDist = 0
			}
			break
		}
	}
	if minDist > d0/3 {
		t.Errorf("constant push closest approach %v, want < %v", minDist, d0/3)
	}
}

func TestTrainDeviationExploitSmoke(t *testing.T) {
	env, err := NewDeviationEnv(EnvConfig{
		Variable: "PIDR.INTEG",
		Seed:     400,
		Mission:  firmware.LineMission(40, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainExploit(env, ExploitConfig{Episodes: 6, MaxSteps: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy == nil || res.Train == nil || res.Train.Episodes != 6 {
		t.Fatalf("training result: %+v", res)
	}
	if res.Variable != "PIDR.INTEG" || res.Learner != LearnerReinforce {
		t.Errorf("metadata: %+v", res)
	}
	if n := len(res.Replay.Steps); n == 0 || n > 25 {
		t.Errorf("replay ran %d steps, want 1..25", n)
	}
	// Q-learning variant runs too.
	qenv, err := NewDeviationEnv(EnvConfig{
		Variable: "PIDR.INTEG",
		Seed:     410,
		Mission:  firmware.LineMission(40, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	qres, err := TrainExploit(qenv, ExploitConfig{Episodes: 3, MaxSteps: 15, Seed: 2, Learner: LearnerQLearning})
	if err != nil {
		t.Fatal(err)
	}
	if qres.Learner != LearnerQLearning || qres.Train.Episodes != 3 {
		t.Errorf("qlearning result: %+v", qres)
	}
	// Unknown learner rejected.
	if _, err := TrainExploit(qenv, ExploitConfig{Learner: "sarsa"}); err == nil {
		t.Error("unknown learner accepted")
	}
}
