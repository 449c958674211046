package main

import (
	"math/rand"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/cpv"
)

// Every input is drawn from a small pool of pinned values, so that each
// output the benchmark can produce has a digest recorded in digests.json.
// A pass is one round per pool entry, and a run measures whole passes:
// work per round depends on the campaign seed (an RL episode ends early
// once its attack succeeds), so a run that covered only part of a pool
// would measure a different amount of work on every seed. The workload
// seed picks the order of the pass and, for the daemon, the order and mix
// of submissions. Each pool is sized so one pass takes about 20 s on two
// vCPUs; the sweep's single campaign already does.
var (
	sweepSeeds    = []int64{101}
	fleetSeeds    = []int64{201, 202}
	daemonSeeds   = seedRange(301, 309)
	pipelineSeeds = seedRange(1, 40)
)

// Daemon assessment budgets: small enough that a run answers well over
// the 40 submissions its latency percentiles need.
const (
	daemonEpisodes = 2
	daemonMaxSteps = 30
	daemonTrials   = 3 // bodies ask for 1..daemonTrials trials
	// daemonRepeats of the daemonRoundSize submissions in a round repeat
	// an earlier body of the same round.
	daemonRoundSize = 24
	daemonRepeats   = 6
)

func seedRange(lo, hi int64) []int64 {
	var s []int64
	for v := lo; v <= hi; v++ {
		s = append(s, v)
	}
	return s
}

// pick returns the pool entry round r of a run with this seed uses: each
// pass visits every entry once, in an order drawn from the seed.
func pick(pool []int64, seed int64, r int) int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(len(pool))
	return pool[perm[r%len(pool)]]
}

// sweepSpec is the ROADMAP reference campaign: arescamp's defaults over
// both case-study variables, two missions and two defenses.
func sweepSpec(seed int64) campaign.Spec {
	return campaign.Spec{
		Name:      "arescamp",
		Seed:      seed,
		Missions:  []campaign.MissionSpec{{Kind: "line", Size: 60, Alt: 10}, {Kind: "square", Size: 25, Alt: 10}},
		Variables: []string{"PIDR.INTEG", "CMD.Roll"},
		Goals:     []string{campaign.GoalDeviation},
		Attacks:   []string{campaign.AttackRL},
		Defenses:  []string{campaign.DefenseNone, campaign.DefenseCI},
		Trials:    4,
		Episodes:  12,
		MaxSteps:  60,
	}
}

// fleetSpec is the whole built-in CPV catalog as one campaign.
func fleetSpec(seed int64) (campaign.Spec, error) {
	return cpv.CompileIDs(cpv.Options{Name: "catalog-fleet", Seed: seed,
		Trials: 2, Episodes: 12, MaxSteps: 60}, cpv.IDs()...)
}

// assessBody is one POST /v1/cpvs/{id}/assess submission.
type assessBody struct {
	Record   string `json:"-"`
	Seed     int64  `json:"seed"`
	Trials   int    `json:"trials"`
	Episodes int    `json:"episodes"`
	MaxSteps int    `json:"max_steps"`
}

// spec is the campaign the daemon compiles the body into.
func (b assessBody) spec() (campaign.Spec, error) {
	return cpv.CompileIDs(cpv.Options{Name: "cpv:" + b.Record, Seed: b.Seed,
		Trials: b.Trials, Episodes: b.Episodes, MaxSteps: b.MaxSteps}, b.Record)
}

// daemonPlan is round r's submission sequence. One daemon life serves
// one round, and every body of a round carries the same campaign seed:
// the daemon calibrates each mission's monitor once per life, from the
// seed of whichever job asks first, so mixing seeds in one life would
// make a result depend on submission order. The round's distinct bodies
// are drawn without replacement from records × trial counts; the
// repeats re-submit bodies that appear earlier in the sequence.
func daemonPlan(seed int64, r int) []assessBody {
	cs := pick(daemonSeeds, seed, r)
	rng := rand.New(rand.NewSource(seed*7919 + int64(r)))
	var all []assessBody
	for _, id := range cpv.IDs() {
		for t := 1; t <= daemonTrials; t++ {
			all = append(all, assessBody{Record: id, Seed: cs, Trials: t,
				Episodes: daemonEpisodes, MaxSteps: daemonMaxSteps})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	plan := append([]assessBody(nil), all[:daemonRoundSize-daemonRepeats]...)
	for k := 0; k < daemonRepeats; k++ {
		// Insert a repeat of an earlier body at a later position.
		pos := 1 + rng.Intn(len(plan))
		dup := plan[rng.Intn(pos)]
		plan = append(plan[:pos], append([]assessBody{dup}, plan[pos:]...)...)
	}
	return plan
}

// episodesOf counts the trial-episodes a job list flies: an RL job trains
// Episodes episodes plus one evaluation rollout, a stealthy job flies one
// session.
func episodesOf(jobs []campaign.Job) int {
	n := 0
	for _, j := range jobs {
		if j.Attack == campaign.AttackStealthy {
			n++
			continue
		}
		eps := j.Episodes
		if eps <= 0 {
			eps = 60 // core.ExploitConfig's default
		}
		n += eps + 1
	}
	return n
}
