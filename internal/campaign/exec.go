package campaign

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/core"
	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/mathx"
)

// Per-job seed streams. Each independent random consumer inside a job
// draws from its own stream of the job seed, mirroring ares.go.
const (
	streamJobEnv int64 = iota + 1
	streamJobPolicy
)

// monitorEntry lazily calibrates one CI monitor exactly once.
type monitorEntry struct {
	once sync.Once
	ci   *defense.ControlInvariants
	err  error
}

// aresExecutor is the production Executor: it trains and evaluates one RL
// exploit per job on the built-in firmware simulator. Monitors are
// calibrated once per mission and campaign seed (so the calibration is
// identical at any worker count and in any submission order) and cloned
// per job, because a fitted monitor's Observe mutates its runtime state.
type aresExecutor struct {
	mu       sync.Mutex
	monitors map[monitorKey]*monitorEntry
}

// NewExecutor returns the built-in ARES job executor.
func NewExecutor() Executor {
	e := &aresExecutor{monitors: make(map[monitorKey]*monitorEntry)}
	return e.run
}

// GroupExecutor runs several jobs from one campaign cell and returns one
// Metrics per job, in order, identical to what the scalar Executor would
// produce for each job.
//
// Deprecated: the batched lockstep execution path was removed because it
// never beat the scalar executor end to end. No Runner calls a
// GroupExecutor any more; the type remains for source compatibility.
type GroupExecutor func(ctx context.Context, jobs []Job) ([]Metrics, error)

// NewBatchExecutor returns the built-in executor and a nil group executor.
//
// Deprecated: use NewExecutor. A group executor's contract is to return
// exactly the scalar executor's records, so running every job through the
// scalar executor is equivalent.
func NewBatchExecutor() (Executor, GroupExecutor) {
	return NewExecutor(), nil
}

// monitorKey identifies one calibration: the mission and the seed derived
// from the campaign seed. Keying by mission alone would hand a second
// campaign with a different seed the first campaign's monitor whenever one
// executor serves both (a daemon or fleet worker), making records depend
// on submission order.
type monitorKey struct {
	mission string
	seed    int64
}

func (e *aresExecutor) monitor(job Job) (*defense.ControlInvariants, error) {
	name := job.Mission.Name()
	key := monitorKey{name, mathx.DeriveSeed(job.BaseSeed, streamOf("calibrate/"+name))}
	e.mu.Lock()
	ent, ok := e.monitors[key]
	if !ok {
		ent = &monitorEntry{}
		e.monitors[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		mission, err := job.Mission.Build()
		if err != nil {
			ent.err = err
			return
		}
		ent.ci, ent.err = attack.CalibrateMonitors(mission, key.seed)
	})
	if ent.err != nil {
		return nil, fmt.Errorf("campaign: calibrate %s: %w", name, ent.err)
	}
	return ent.ci.Clone(), nil
}

// monitorsFor maps the job's defense axis onto the in-loop monitor set:
// none, the calibrated CI monitor, or a recovery guard over it.
func (e *aresExecutor) monitorsFor(job Job) (attack.Monitors, error) {
	if job.Defense != DefenseCI && job.Defense != DefenseRecovery {
		return attack.Monitors{}, nil
	}
	ci, err := e.monitor(job)
	if err != nil {
		return attack.Monitors{}, err
	}
	if job.Defense == DefenseRecovery {
		return attack.Monitors{Recovery: defense.NewRecoveryGuard(ci)}, nil
	}
	return attack.Monitors{CI: ci}, nil
}

func (e *aresExecutor) run(ctx context.Context, job Job) (Metrics, error) {
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	if job.Attack == AttackStealthy {
		return e.runStealthy(job)
	}
	mission, err := job.Mission.Build()
	if err != nil {
		return Metrics{}, err
	}

	mons, err := e.monitorsFor(job)
	if err != nil {
		return Metrics{}, err
	}
	envCfg := core.EnvConfig{
		Variable:  job.Variable,
		Mission:   mission,
		MaxAction: job.MaxAction,
		Monitors:  mons,
		Seed:      mathx.DeriveSeed(job.Seed, streamJobEnv),
	}
	var env core.AttackEnv
	switch job.Goal {
	case GoalDeviation:
		env, err = core.NewDeviationEnv(envCfg)
	case GoalCrash:
		if envCfg.MaxAction == 0 {
			envCfg.MaxAction = 0.6
		}
		env, err = core.NewCrashEnv(envCfg, core.ForbiddenZone(job.Mission.Size, job.Mission.Alt))
	default:
		return Metrics{}, fmt.Errorf("campaign: unknown goal %q", job.Goal)
	}
	if err != nil {
		return Metrics{}, err
	}
	res, err := core.TrainExploit(env, core.ExploitConfig{
		Episodes: job.Episodes,
		MaxSteps: job.MaxSteps,
		Seed:     mathx.DeriveSeed(job.Seed, streamJobPolicy),
		Learner:  job.Learner,
	})
	if err != nil {
		return Metrics{}, err
	}
	return metricsOf(job, res), nil
}

// runStealthy executes one stealthy-injection cell. The attack is a fixed
// magnitude schedule, not a trained policy, so the cell is a single
// instrumented session flight instead of an RL training run: the attacker's
// shadow monitor is a clone of the same per-mission calibrated CI monitor
// the defense deploys (the standard white-box assumption), and the deployed
// defense — if any — runs independently.
func (e *aresExecutor) runStealthy(job Job) (Metrics, error) {
	mission, err := job.Mission.Build()
	if err != nil {
		return Metrics{}, err
	}
	shadow, err := e.monitor(job)
	if err != nil {
		return Metrics{}, err
	}
	mons, err := e.monitorsFor(job)
	if err != nil {
		return Metrics{}, err
	}
	maxSteps := job.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 100
	}
	res, err := attack.RunSession(attack.SessionConfig{
		Mission: mission,
		Strategy: &attack.StealthyAttack{
			Variable: job.Variable,
			Shadow:   shadow,
			Cap:      job.MaxAction, // 0 keeps the strategy default
		},
		AttackStart: 2,
		// The session flies the same wall-clock budget the RL evaluation
		// rollout would get.
		Duration: float64(maxSteps) * core.ActionInterval,
		Seed:     mathx.DeriveSeed(job.Seed, streamJobEnv),
		Monitors: mons,
	})
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		Deviation: res.MaxPathDev,
		Detected:  res.Detected(),
		Crashed:   res.Crashed,
		Recovered: res.Recovered,
		Success:   deviated(job, res.MaxPathDev, res.Crashed, res.Detected()),
	}, nil
}

// deviated is a deviation cell's success criterion: the vehicle left the
// path by at least the job's threshold, or crashed, without an alarm.
func deviated(job Job, dev float64, crashed, detected bool) bool {
	return (dev >= job.SuccessDeviation || crashed) && !detected
}

// metricsOf folds an exploit result into the campaign metrics, applying
// the success criterion: a *stealthy* failure — the goal condition met
// without tripping the in-loop detector. A deviation cell judges the
// final deviation of the greedy replay; a crash cell's goal is a crash
// into the forbidden zone.
func metricsOf(job Job, res *core.ExploitResult) Metrics {
	r := res.Replay
	m := Metrics{
		Deviation: r.Final,
		Return:    finiteReturn(r.Return),
		Detected:  r.Detected,
		Crashed:   r.Crashed,
		Recovered: r.Recovered,
	}
	if res.Train != nil {
		m.BestReturn = finiteReturn(res.Train.BestReturn)
	}
	switch job.Goal {
	case GoalCrash:
		zone := core.ForbiddenZone(job.Mission.Size, job.Mission.Alt)
		m.GoalReached = r.Crashed && strings.Contains(r.CrashReason, zone.Name)
		m.Success = m.GoalReached && !r.Detected
	default:
		m.Success = deviated(job, r.Final, r.Crashed, r.Detected)
	}
	return m
}

// finiteReturn maps the paper's infinite terminal rewards onto values the
// JSON artifact can carry: Equation 4 scores a detected episode -Inf and
// Equation 5 scores zone contact +Inf, so a cell whose every episode trips
// the detector trains to a literally infinite return — which
// encoding/json rejects, aborting the whole campaign at store.Append.
// The sign is clamped to ±MaxFloat64 (round-trips exactly through JSON)
// and the underlying events stay first-class in the record as the
// Detected / GoalReached booleans, so no information is lost.
func finiteReturn(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}
