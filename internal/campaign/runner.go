package campaign

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/ares-cps/ares/internal/metrics"
	"github.com/ares-cps/ares/internal/par"
)

// Campaign instruments on the process-default metrics registry. The
// assessment daemon mounts the same registry at /metrics, and batch CLIs
// dump it at exit, so a job fleet reports identically however it is
// driven. Registration is idempotent, so these are safe package-level
// singletons.
var (
	mJobsOK      = metrics.Default().Counter("ares_campaign_jobs_ok_total", "campaign jobs finished with status ok")
	mJobsError   = metrics.Default().Counter("ares_campaign_jobs_error_total", "campaign jobs finished with status error")
	mJobsPanic   = metrics.Default().Counter("ares_campaign_jobs_panic_total", "campaign jobs that panicked (recovered and recorded)")
	mJobsResumed = metrics.Default().Counter("ares_campaign_jobs_resumed_total", "campaign jobs skipped because the store already had an ok record")
	mInflight    = metrics.Default().Gauge("ares_campaign_inflight_jobs", "campaign jobs currently executing")
	mJobSeconds  = metrics.Default().Histogram("ares_campaign_job_seconds", "per-job wall time in seconds", nil)
)

// Executor runs one job and returns its metrics. Implementations must be
// deterministic in job.Seed and safe for concurrent calls.
type Executor func(ctx context.Context, job Job) (Metrics, error)

// RecordSink receives finished job records. *Store is the canonical sink;
// internal/dist workers substitute a sink that streams records back to
// their coordinator. Both methods are called concurrently from the
// runner's worker pool.
type RecordSink interface {
	// Completed reports whether key already has an ok record, so a
	// resumed run skips it.
	Completed(key string) bool
	// Append durably records one finished job.
	Append(Record) error
}

// RunStats summarizes one Runner.Run invocation.
type RunStats struct {
	// Total is the expanded job count; Skipped were already in the store.
	Total, Skipped int
	// OK, Errors and Panics count the jobs executed this run.
	OK, Errors, Panics int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// Executed returns the number of jobs run (not skipped) this invocation.
func (s RunStats) Executed() int { return s.OK + s.Errors + s.Panics }

// Runner executes a campaign's jobs on a bounded worker pool.
type Runner struct {
	// Workers is the pool size; <=0 uses the process budget (GOMAXPROCS).
	Workers int
	// Execute runs one job; nil uses the built-in ARES executor.
	Execute Executor
	// ExecuteGroup is ignored: every job runs through Execute.
	//
	// Deprecated: the batched lockstep execution path was removed. A
	// group executor's contract was to return exactly Execute's records,
	// so ignoring it changes no record.
	ExecuteGroup GroupExecutor
	// Log receives one progress line per finished job; nil discards.
	Log io.Writer
}

// Run expands the spec, skips jobs already completed in the store, and
// executes the remainder. A job panic is recovered and recorded as a
// statusPanic record — it never kills the fleet. Cancelling ctx stops new
// jobs from starting; in-flight jobs finish and are recorded, so a
// cancelled run resumes cleanly.
func (r *Runner) Run(ctx context.Context, spec Spec, store *Store) (RunStats, error) {
	if err := spec.Validate(); err != nil {
		return RunStats{}, err
	}
	return r.RunJobs(ctx, spec.Expand(), store)
}

// RunJobs executes an explicit job list against a record sink. It is the
// body of Run with the expansion step factored out, so a distributed
// worker can execute the subset of a campaign's jobs its lease names
// (expanded locally from the same spec) while streaming records back
// through its sink — same pool, same panic recovery.
func (r *Runner) RunJobs(ctx context.Context, jobs []Job, sink RecordSink) (RunStats, error) {
	stats := RunStats{Total: len(jobs)}
	pending := jobs[:0:0]
	for _, j := range jobs {
		if sink.Completed(j.Key) {
			stats.Skipped++
			continue
		}
		pending = append(pending, j)
	}
	mJobsResumed.Add(uint64(stats.Skipped))

	exec := r.Execute
	if exec == nil {
		exec = NewExecutor()
	}
	workers := par.Workers(r.Workers)
	logw := r.Log
	if logw == nil {
		logw = io.Discard
	}

	start := time.Now()
	var mu sync.Mutex // guards stats and logw
	err := par.ForEach(ctx, workers, len(pending), func(i int) error {
		job := pending[i]
		mInflight.Inc()
		jobStart := time.Now()
		rec := runJob(ctx, exec, job)
		mJobSeconds.Observe(time.Since(jobStart).Seconds())
		mInflight.Dec()
		if err := sink.Append(rec); err != nil {
			return err
		}
		mu.Lock()
		switch rec.Status {
		case StatusOK:
			stats.OK++
			mJobsOK.Inc()
		case statusPanic:
			stats.Panics++
			mJobsPanic.Inc()
		default:
			stats.Errors++
			mJobsError.Inc()
		}
		fmt.Fprintln(logw, ProgressLine(stats.Executed()+stats.Skipped, stats.Total, rec))
		mu.Unlock()
		return nil
	})
	stats.Elapsed = time.Since(start)
	return stats, err
}

// ProgressLine is the one-line progress report of a finished record, the
// done-th of total: what a runner logs per job and what a coordinator's
// per-campaign event log streams per merged record.
func ProgressLine(done, total int, rec Record) string {
	line := fmt.Sprintf("[%d/%d] %s: %s", done, total, rec.Key, rec.Status)
	if rec.Metrics != nil {
		line += fmt.Sprintf(" dev=%.2fm success=%v detected=%v",
			rec.Metrics.Deviation, rec.Metrics.Success, rec.Metrics.Detected)
	}
	return line
}

// runJob executes one job with panic recovery and builds its record.
func runJob(ctx context.Context, exec Executor, job Job) (rec Record) {
	rec = Record{
		Key:      job.Key,
		Mission:  job.Mission.Name(),
		Variable: job.Variable,
		Goal:     job.Goal,
		Attack:   job.Attack,
		Defense:  job.Defense,
		Trial:    job.Trial,
		CPV:      job.CPV,
		Seed:     job.Seed,
	}
	defer func() {
		if p := recover(); p != nil {
			rec.Status = statusPanic
			rec.Error = fmt.Sprint(p)
			rec.Metrics = nil
		}
	}()
	m, err := exec(ctx, job)
	if err != nil {
		rec.Status = statusError
		rec.Error = err.Error()
		return rec
	}
	rec.Status = StatusOK
	rec.Metrics = &m
	return rec
}
