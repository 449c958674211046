// Package metrics provides the repository's allocation-light process
// metrics: counters, gauges and fixed-bucket histograms that cost one
// atomic op per update, collected in named registries and rendered in the
// Prometheus text exposition format.
//
// The assessment daemon (internal/serve) mounts a registry at GET
// /metrics; batch CLIs dump the same counters to stderr at exit
// (expvar-style), so a campaign observed over HTTP and a campaign run from
// the shell report through one instrument set. Registration is idempotent
// — asking a registry for an already-registered name returns the existing
// instrument — so package-level metric variables in different packages can
// share one registry without init-order coupling.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 level (queue depth, in-flight workers).
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed upper-bound buckets (plus the
// implicit +Inf bucket) and tracks their sum. Observe is lock-free: one
// atomic add for the bucket, one for the count, and a CAS loop for the
// float64 sum.
type Histogram struct {
	bounds []float64 // sorted inclusive upper bounds, +Inf excluded
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

// defBuckets are latency buckets in seconds spanning a 5 ms HTTP round
// trip to a multi-minute campaign.
func defBuckets() []float64 {
	return []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric is one registered instrument.
type metric struct {
	name, help, kind string
	c                *Counter
	g                *Gauge
	h                *Histogram
}

// Registry is a named set of instruments. The zero value is not usable;
// call NewRegistry, or share Default().
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Package-level instruments
// (e.g. the campaign job counters) register here, so a daemon that mounts
// Default().Handler() exposes them alongside its own.
func Default() *Registry { return defaultRegistry }

// lookup returns the metric registered under name, creating it with mk on
// first use. A name registered with a different kind panics: silent reuse
// would corrupt both series.
func (r *Registry) lookup(name, help, kind string, mk func(*metric)) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	mk(m)
	r.byName[name] = m
	return m
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, "counter", func(m *metric) { m.c = &Counter{} }).c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, "gauge", func(m *metric) { m.g = &Gauge{} }).g
}

// Histogram returns the histogram registered under name, creating it on
// first use with the given bucket upper bounds (nil uses defBuckets; the
// +Inf bucket is implicit). Buckets are fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.lookup(name, help, "histogram", func(m *metric) {
		if len(buckets) == 0 {
			buckets = defBuckets()
		}
		b := append([]float64(nil), buckets...)
		sort.Float64s(b)
		m.h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	}).h
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format, sorted by name so output is stable across runs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.byName))
	for _, m := range r.byName {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	for _, m := range ms {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind); err != nil {
			return err
		}
		var err error
		switch m.kind {
		case "counter":
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value())
		case "gauge":
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.g.Value())
		case "histogram":
			err = m.h.write(w, m.name)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (h *Histogram) write(w io.Writer, name string) error {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmtFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, fmtFloat(h.Sum()), name, h.Count())
	return err
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler serves the registry in the Prometheus text format, for mounting
// at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
