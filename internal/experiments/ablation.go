package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/core"
	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
)

// AblationResult covers the design-choice ablations DESIGN.md calls out:
// clustering before model selection, stepwise vs exhaustive search, policy
// gradient vs Q-learning, and bounded vs unbounded manipulation amounts.
type AblationResult struct {
	// Clustered/Flat report the model-selection cost with and without
	// hierarchical clustering (models fitted, TSVL size).
	ClusteredModels, FlatModels int
	ClusteredTSVL, FlatTSVL     []string
	// StepwiseModels/ExhaustiveModels compare the search cost at equal
	// data on the same subset.
	StepwiseModels, ExhaustiveModels int
	StepwiseAIC, ExhaustiveAIC       float64
	// PGReturn and QReturn compare the learners' late-training returns
	// on the deviation task.
	PGReturn, QReturn float64
	// BoundedDetected and UnboundedDetected compare the CI detection
	// outcome for a gradual ramp versus random jitter of equal magnitude
	// (the paper's bounded-vs-random manipulation design choice).
	BoundedDetected, UnboundedDetected bool
	BoundedDev, UnboundedDev           float64
	// WithDetector/WithoutDetector compare agents trained with and
	// without the CI monitor in the reward loop (Section V-C: the −∞
	// alarm penalty "incentivizes the RL agent to explore areas of the
	// state space which do not trigger an alarm").
	WithDetectorEvaded    bool
	WithDetectorDev       float64
	WithoutDetectorDev    float64
	WithoutDetectorCaught bool
	TotalTrainEpisodes    int
}

// Name implements Result.
func (*AblationResult) Name() string { return "ablation" }

// RunAblation executes the four ablations.
func RunAblation(s *Suite) (*AblationResult, error) {
	prof, err := s.Profile()
	if err != nil {
		return nil, err
	}
	res := &AblationResult{}

	// (1) Clustering vs none.
	clustered, err := core.AnalyzeRoll(prof, s.Analysis)
	if err != nil {
		return nil, err
	}
	flatOpts := s.Analysis
	flatOpts.SkipClustering = true
	flat, err := core.AnalyzeRoll(prof, flatOpts)
	if err != nil {
		return nil, err
	}
	res.ClusteredModels = clustered.Report.ModelsFitted
	res.FlatModels = flat.Report.ModelsFitted
	res.ClusteredTSVL = clustered.TSVL
	res.FlatTSVL = flat.TSVL

	// (2) Stepwise vs exhaustive on the Sqrt group (small enough for
	// exhaustive search).
	sqrt, err := core.GroupByName("Sqrt")
	if err != nil {
		return nil, err
	}
	sw, err := core.AnalyzeGroup(prof, sqrt, s.Analysis)
	if err != nil {
		return nil, err
	}
	exOpts := s.Analysis
	exOpts.Exhaustive = true
	ex, err := core.AnalyzeGroup(prof, sqrt, exOpts)
	if err != nil {
		return nil, err
	}
	res.StepwiseModels = sw.Report.ModelsFitted
	res.ExhaustiveModels = ex.Report.ModelsFitted
	res.StepwiseAIC = bestAIC(sw)
	res.ExhaustiveAIC = bestAIC(ex)

	// (3) Policy gradient vs Q-learning on the deviation task.
	episodes := s.episodes() / 2
	pg, err := trainAblation(core.EnvConfig{Variable: "PIDR.INTEG", Seed: s.Seed + 2000}, //areslint:ignore seedarith golden-pinned
		core.ExploitConfig{Episodes: episodes, MaxSteps: 40, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	q, err := trainAblation(core.EnvConfig{Variable: "PIDR.INTEG", Seed: s.Seed + 2100}, //areslint:ignore seedarith golden-pinned
		core.ExploitConfig{Episodes: episodes, MaxSteps: 40, Seed: s.Seed, Learner: core.LearnerQLearning})
	if err != nil {
		return nil, err
	}
	n := episodes / 5
	if n < 1 {
		n = 1
	}
	res.PGReturn = pg.Train.MeanLastN(n)
	res.QReturn = q.Train.MeanLastN(n)

	// (4) Bounded (gradual) vs unbounded (jump) manipulation of equal
	// total magnitude against the CI detector.
	ci, err := s.CI()
	if err != nil {
		return nil, err
	}
	mission := s.attackMission()
	bounded, err := attack.RunSession(attack.SessionConfig{
		Mission: mission, Duration: 60, Seed: s.Seed + 30, Monitors: attack.Monitors{CI: ci}, //areslint:ignore seedarith golden-pinned
		Strategy: &attack.RampAttack{
			Region: firmware.RegionStabilizer, Variable: "CMD.Roll",
			Rate: 0.0436, Cap: 0.4,
		},
		AttackStart: 10,
	})
	if err != nil {
		return nil, err
	}
	unbounded, err := attack.RunSession(attack.SessionConfig{
		Mission: mission, Duration: 60, Seed: s.Seed + 31, Monitors: attack.Monitors{CI: ci}, //areslint:ignore seedarith golden-pinned
		Strategy: &attack.JitterAttack{
			Region: firmware.RegionStabilizer, Variable: "CMD.Roll",
			Amplitude: 0.4, Interval: 0.3, Seed: s.Seed,
		},
		AttackStart: 10,
	})
	if err != nil {
		return nil, err
	}
	res.BoundedDetected = bounded.DetectedCI
	res.UnboundedDetected = unbounded.DetectedCI
	res.BoundedDev = bounded.MaxPathDev
	res.UnboundedDev = unbounded.MaxPathDev

	// (5) Detector-in-the-loop reward vs plain reward.
	res.TotalTrainEpisodes = episodes
	// The command-offset lever is strong enough that an unconstrained
	// agent's aggressive offsets trip the CI monitor; the in-loop agent
	// must trade deviation for stealth.
	cmdRoll := func(seed int64, detector *defense.ControlInvariants) core.EnvConfig {
		return core.EnvConfig{Variable: "CMD.Roll", MaxAction: 0.6, Seed: seed, Monitors: attack.Monitors{CI: detector}}
	}
	train := core.ExploitConfig{Episodes: episodes, MaxSteps: 60, Seed: s.Seed + 3} //areslint:ignore seedarith golden-pinned

	inLoop, err := trainAblation(cmdRoll(s.Seed+2200, ci), train) //areslint:ignore seedarith golden-pinned
	if err != nil {
		return nil, err
	}
	plain, err := trainAblation(cmdRoll(s.Seed+2300, nil), train) //areslint:ignore seedarith golden-pinned
	if err != nil {
		return nil, err
	}
	// Judge the detector-blind policy under the detector it never saw, by
	// the peak deviation of its replay.
	judge, err := core.NewDeviationEnv(cmdRoll(s.Seed+2400, ci)) //areslint:ignore seedarith golden-pinned
	if err != nil {
		return nil, err
	}
	judged := core.Replay(judge, plain.Policy, 60)
	res.WithDetectorEvaded = !inLoop.Replay.Detected
	res.WithDetectorDev = inLoop.Replay.Final
	res.WithoutDetectorDev = judged.Peak
	res.WithoutDetectorCaught = judged.Detected
	return res, nil
}

// trainAblation trains one exploit on a deviation environment.
func trainAblation(env core.EnvConfig, cfg core.ExploitConfig) (*core.ExploitResult, error) {
	e, err := core.NewDeviationEnv(env)
	if err != nil {
		return nil, err
	}
	return core.TrainExploit(e, cfg)
}

func bestAIC(g *core.GroupAnalysis) float64 {
	best := 0.0
	first := true
	for _, m := range g.Report.Models {
		if m.Model == nil {
			continue
		}
		if first || m.Model.AIC < best {
			best = m.Model.AIC
			first = false
		}
	}
	return best
}

// WriteText implements Result.
func (r *AblationResult) WriteText(w io.Writer) error {
	sections := []string{
		fmt.Sprintf("Ablation 1 — hierarchical clustering before selection:\n"+
			"  clustered: %d models fitted, TSVL = %s\n"+
			"  flat:      %d models fitted, TSVL = %s\n",
			r.ClusteredModels, strings.Join(r.ClusteredTSVL, ","),
			r.FlatModels, strings.Join(r.FlatTSVL, ",")),
		fmt.Sprintf("Ablation 2 — stepwise vs exhaustive AIC (Sqrt group):\n"+
			"  stepwise:   %d models, best AIC %.1f\n"+
			"  exhaustive: %d models, best AIC %.1f\n",
			r.StepwiseModels, r.StepwiseAIC,
			r.ExhaustiveModels, r.ExhaustiveAIC),
		fmt.Sprintf("Ablation 3 — policy gradient vs Q-learning (deviation task):\n"+
			"  policy gradient late return: %.2f\n"+
			"  Q-learning late return:      %.2f\n",
			r.PGReturn, r.QReturn),
		fmt.Sprintf("Ablation 5 — detector-in-the-loop reward (%d episodes each):\n"+
			"  with CI in loop:    eval deviation %.2f m, evaded detector=%v\n"+
			"  without detector:   eval deviation %.2f m, caught when judged under CI=%v\n",
			r.TotalTrainEpisodes, r.WithDetectorDev, r.WithDetectorEvaded,
			r.WithoutDetectorDev, r.WithoutDetectorCaught),
		fmt.Sprintf("Ablation 4 — bounded ramp vs random jitter (equal magnitude 0.4):\n"+
			"  gradual: detected=%v, max deviation %.1f m\n"+
			"  random:  detected=%v, max deviation %.1f m\n"+
			"  (a directed ramp converts the same manipulation magnitude into far\n"+
			"   more physical displacement than zero-mean jumps)\n",
			r.BoundedDetected, r.BoundedDev,
			r.UnboundedDetected, r.UnboundedDev),
	}
	for _, s := range sections {
		if _, err := fmt.Fprintln(w, s); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV implements Result.
func (r *AblationResult) WriteCSV(dir string) error {
	rows := [][]string{
		{"clustered_models", fmt.Sprint(r.ClusteredModels)},
		{"flat_models", fmt.Sprint(r.FlatModels)},
		{"stepwise_models", fmt.Sprint(r.StepwiseModels)},
		{"exhaustive_models", fmt.Sprint(r.ExhaustiveModels)},
		{"pg_return", fmt.Sprint(r.PGReturn)},
		{"q_return", fmt.Sprint(r.QReturn)},
		{"bounded_detected", fmt.Sprint(r.BoundedDetected)},
		{"unbounded_detected", fmt.Sprint(r.UnboundedDetected)},
	}
	return campaign.WriteCSV(dir, "ablation.csv", []string{"metric", "value"}, rows)
}
