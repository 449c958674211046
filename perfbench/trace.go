package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
)

// span is one timed call the benchmark made into a layer. Spans stay in
// memory and are written out once, when the run ends.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Key is the job key or campaign ID the call worked on.
	Key string `json:"key,omitempty"`
	// N carries a count the call moved (keys leased, bytes posted).
	N int64 `json:"n,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer records spans. A nil *tracer records nothing, so untraced runs
// share every code path with traced ones at the cost of a nil check.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	// round is the ID of the round span new spans hang under.
	round atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the current round and returns the function
// that closes it with a count.
func (t *tracer) begin(name, key string) func(n int64) {
	if t == nil {
		return func(int64) {}
	}
	start := time.Since(t.epoch).Nanoseconds()
	parent := t.round.Load()
	return func(n int64) {
		t.add(span{Parent: parent, Name: name, Start: start,
			End: time.Since(t.epoch).Nanoseconds(), Key: key, N: n})
	}
}

// record adds a span whose interval the caller measured itself.
func (t *tracer) record(name, key string, start, end time.Time, n int64) {
	if t == nil {
		return
	}
	t.add(span{Parent: t.round.Load(), Name: name, Key: key, N: n,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

func (t *tracer) add(s span) {
	s.ID = t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginRound opens the round span every later span names as its parent.
func (t *tracer) beginRound(key string) func() {
	if t == nil {
		return func() {}
	}
	id := t.nextID.Add(1)
	start := time.Since(t.epoch).Nanoseconds()
	t.round.Store(id)
	return func() {
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Name: "round", Key: key,
			Start: start, End: time.Since(t.epoch).Nanoseconds()})
		t.mu.Unlock()
	}
}

// byName groups the recorded spans by name.
func (t *tracer) byName() map[string][]span {
	out := make(map[string][]span)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// execKind names the executor span of one job.
func execKind(j campaign.Job) string {
	switch {
	case j.Attack == campaign.AttackStealthy:
		return "exec.stealthy"
	case j.Goal == campaign.GoalCrash:
		return "exec.crash"
	default:
		return "exec.deviation"
	}
}

// tracedExecutors wraps an executor pair so every call becomes a span.
// A nil group executor stays nil, so the Runner keeps its scalar path.
func (t *tracer) tracedExecutors(exec campaign.Executor, group campaign.GroupExecutor) (campaign.Executor, campaign.GroupExecutor) {
	if t == nil {
		return exec, group
	}
	tExec := func(ctx context.Context, j campaign.Job) (campaign.Metrics, error) {
		end := t.begin(execKind(j), j.Key)
		defer end(1)
		return exec(ctx, j)
	}
	if group == nil {
		return tExec, nil
	}
	return tExec, func(ctx context.Context, jobs []campaign.Job) ([]campaign.Metrics, error) {
		end := t.begin("exec.group", jobs[0].Key)
		defer end(int64(len(jobs)))
		return group(ctx, jobs)
	}
}

// timedSink wraps the Runner's record sink: it stamps the arrival of
// every record (the latency samples of a local campaign) and, traced,
// times each Append.
type timedSink struct {
	campaign.RecordSink
	tr    *tracer
	start time.Time

	mu      sync.Mutex
	arrived []float64
}

func (s *timedSink) Append(r campaign.Record) error {
	end := s.tr.begin("campaign.append", r.Key)
	err := s.RecordSink.Append(r)
	end(1)
	s.mu.Lock()
	s.arrived = append(s.arrived, time.Since(s.start).Seconds())
	s.mu.Unlock()
	return err
}

// handlerSpans times every request a handler serves, naming the span
// after the route pattern that matched.
func (t *tracer) handlerSpans(prefix string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		end := t.begin(prefix+r.Method+" "+routeOf(r.URL.Path), "")
		h.ServeHTTP(w, r)
		end(r.ContentLength)
	})
}

// routeOf collapses IDs out of a request path so spans group by route.
func routeOf(path string) string {
	parts := strings.Split(path, "/")
	// /v1/jobs/{id}, /v1/jobs/{id}/events, /v1/results/{id},
	// /v1/cpvs/{id}/assess, /v1/dist/campaigns/{id}/spec.
	for i := range parts {
		if i >= 3 && parts[i] != "" && !isRouteWord(parts[i]) {
			parts[i] = "{id}"
		}
	}
	return strings.Join(parts, "/")
}

func isRouteWord(s string) bool {
	switch s {
	case "events", "assess", "spec", "register", "lease", "heartbeat",
		"records", "complete", "campaigns":
		return true
	}
	return false
}

// readBody drains a body and replaces it with an in-memory copy, so a
// wrapper can inspect what it forwards.
func readBody(rc *io.ReadCloser) ([]byte, error) {
	data, err := io.ReadAll(*rc)
	_ = (*rc).Close() // the bytes are in hand; a close error changes nothing
	*rc = io.NopCloser(bytes.NewReader(data))
	return data, err
}
