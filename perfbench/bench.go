package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A workload is a sequence of rounds. A round is one fixed unit of work —
// a campaign, a batch of daemon submissions, one pipeline — generated from
// the workload seed and the round index alone, so a traced run can replay
// exactly the rounds an untraced run measured.
type workload struct {
	// setup builds round r's state in dir, a fresh empty directory for
	// its stores: everything up to the moment the first unit of work is
	// issued. Its duration is a setup_s sample.
	setup func(ctx context.Context, e *env, r int, dir string) (round, error)
	// storeFile, when set, is made empty in dir before the set-up clock
	// starts, so the set-up opens an existing store rather than creating
	// one (see setupRound).
	storeFile string
	// pass is the number of rounds in one pass over the input pool; a run
	// measures whole passes.
	pass int
}

type round interface {
	// run does the round's work; its duration is the timed region.
	run(ctx context.Context) (outcome, error)
	// verify checks the round's outputs after timing and returns how many
	// operations failed the check.
	verify() (int, error)
	// close stops every goroutine and server the round started.
	close() error
}

// outcome is what one round did.
type outcome struct {
	// episodes counts trial-episodes flown (RL: Episodes+1 per job,
	// stealthy: 1 per job, pipeline: one per benign profile flight).
	episodes int
	// requests counts completed top-level requests: pipelines, campaigns,
	// answered submissions.
	requests int
	// latencies are per-request result times in seconds.
	latencies []float64
	// attempted and failed count operations; failed covers non-ok records
	// and non-2xx replies (verify adds outputs that fail the check).
	attempted, failed int
	// slots is the number of execution slots the round's work could use,
	// the denominator of the idle fractions.
	slots int
}

// env is what every round shares: the scratch directory, the tracer
// (nil when untraced), the pinned digests and the workload seed.
type env struct {
	dir     string
	seed    int64
	digests *digestTable
	tr      *tracer
	seq     int
}

// setupRound makes a fresh directory for round r's stores and then times
// the workload's set-up in it. The directory and the empty store file are
// the benchmark's own scaffolding and are made before the clock starts:
// on ext4 creating a file took from 15 µs to 350 µs, growing over
// back-to-back runs as recently freed inodes piled up, which is the
// disk's cost and not the program's.
func setupRound(ctx context.Context, w workload, e *env, r int) (round, float64, error) {
	e.seq++
	dir := filepath.Join(e.dir, fmt.Sprintf("round-%03d", e.seq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	if w.storeFile != "" {
		if err := os.WriteFile(filepath.Join(dir, w.storeFile), nil, 0o644); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	rd, err := w.setup(ctx, e, r, dir)
	return rd, time.Since(start).Seconds(), err
}

// Each run also measures set-ups that are built and torn down without
// running, so setup_s is a median of many samples even when only one or
// two rounds fit in the measuring time: at least minSetups of them, and
// up to maxSetups while they take less than setupBudget in all. The cap
// keeps the files a run creates and frees few (see setupRound).
const (
	minSetups   = 9
	maxSetups   = 60
	setupBudget = 2 * time.Second
)

// roundTimeout bounds one round, so a hung layer ends the run with an
// error instead of running past the exit deadline.
const roundTimeout = 150 * time.Second

// totals accumulates rounds.
type totals struct {
	setup, walls, cpu []float64
	latencies         []float64
	episodes          int
	requests          int
	attempted, failed int
	slots             int
}

func (t *totals) rounds() int { return len(t.walls) }

// measureSetups builds and tears down round 0 repeatedly.
func measureSetups(ctx context.Context, w workload, e *env, t *totals) error {
	begin := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(begin) < setupBudget); i++ {
		rd, took, err := setupRound(ctx, w, e, 0)
		if err != nil {
			return err
		}
		t.setup = append(t.setup, took)
		if err := rd.close(); err != nil {
			return err
		}
	}
	return nil
}

// runRounds runs whole passes until their timed regions add up to about
// budget, or exactly `count` rounds when count > 0. It stops at the pass
// count whose total lands nearest the budget, and after one pass at the
// least: it starts another pass only if more than half a mean pass of the
// budget is left.
func runRounds(ctx context.Context, w workload, e *env, budget time.Duration, count int) (*totals, error) {
	t := &totals{}
	var measured time.Duration
	for r := 0; ; r++ {
		if count > 0 && r == count {
			break
		}
		if passes := r / w.pass; count == 0 && passes > 0 && r%w.pass == 0 &&
			measured+measured/time.Duration(2*passes) >= budget {
			break
		}
		if err := oneRound(ctx, w, e, r, t, &measured); err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
	}
	return t, nil
}

func oneRound(ctx context.Context, w workload, e *env, r int, t *totals, measured *time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, roundTimeout)
	defer cancel()
	endRound := e.tr.beginRound(fmt.Sprintf("round-%d", r))
	defer endRound()

	rd, took, err := setupRound(ctx, w, e, r)
	if err != nil {
		return err
	}
	t.setup = append(t.setup, took)

	cpu0 := cpuSeconds()
	start := time.Now()
	out, err := rd.run(ctx)
	wall := time.Since(start)
	cpu := cpuSeconds() - cpu0
	bad := 0
	if err == nil {
		bad, err = rd.verify()
	}
	if cerr := rd.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	*measured += wall
	t.walls = append(t.walls, wall.Seconds())
	t.cpu = append(t.cpu, cpu)
	t.latencies = append(t.latencies, out.latencies...)
	t.episodes += out.episodes
	t.requests += out.requests
	t.attempted += out.attempted
	t.failed += out.failed + bad
	t.slots = out.slots
	return nil
}

// untracedRun measures the end-to-end metrics.
func untracedRun(ctx context.Context, w workload, e *env, budget time.Duration) (result, error) {
	t := &totals{}
	if err := measureSetups(ctx, w, e, t); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	setups := t.setup
	t, err := runRounds(ctx, w, e, budget, 0)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, t.setup...)
	wall := sum(t.walls)
	m := map[string]metric{
		"episodes_per_s":  {float64(t.episodes) / wall, "1/s"},
		"pipelines_per_s": {float64(t.requests) / wall, "1/s"},
		"latency_p50_s":   {percentile(t.latencies, 50), "s"},
		"latency_p75_s":   {percentile(t.latencies, 75), "s"},
		"cpu_s":           {sum(t.cpu) / float64(t.rounds()), "s"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"setup_s":         {median(setups), "s"},
	}
	sq1, sq3 := quartiles(setups)
	return result{
		out: output{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m},
		samples: map[string]any{"rounds": t.rounds(), "latency": len(t.latencies),
			"setups": len(setups), "setup_q1_q3_s": []float64{sq1, sq3},
			"episodes": t.episodes, "requests": t.requests,
			"round_walls": t.walls},
	}, nil
}

// tracedRun measures half the budget untraced, then replays the same
// rounds with spans and a CPU profile on, and derives the per-layer
// metrics from what the replay recorded.
// Its spans and CPU profile are written to base+".spans.json" and
// base+".cpu.pprof".
func tracedRun(ctx context.Context, w workload, e *env, budget time.Duration, base string) (result, error) {
	plain, err := runRounds(ctx, w, e, budget/2, 0)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return result{}, err
	}
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		_ = prof.Close() // the start error is the one to report
		return result{}, err
	}
	e.tr = newTracer()
	traced, err := runRounds(ctx, w, e, 0, plain.rounds())
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	if err := e.tr.write(base + ".spans.json"); err != nil {
		return result{}, err
	}

	m := layerMetrics(e.tr, traced)
	m["trace.overhead_frac"] = metric{median(traced.walls)/median(plain.walls) - 1, "ratio"}
	shares, err := cpuShares(ctx, base+".cpu.pprof")
	if err != nil {
		return result{}, fmt.Errorf("attribute cpu profile: %w", err)
	}
	for k, v := range shares {
		m[k] = metric{v, "ratio"}
	}
	failed := plain.failed + traced.failed
	attempted := plain.attempted + traced.attempted
	return result{
		out: output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m},
		samples: map[string]any{"untraced_rounds": plain.rounds(), "traced_rounds": traced.rounds(),
			"spans": len(e.tr.spans)},
	}, nil
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
