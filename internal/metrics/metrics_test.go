package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %d, want 2", got)
	}
	h := r.Histogram("h_seconds", "a histogram", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	if h.Count() != 3 {
		t.Errorf("histogram count = %d, want 3", h.Count())
	}
	if h.Sum() != 55.5 {
		t.Errorf("histogram sum = %g, want 55.5", h.Sum())
	}
}

func TestLookupIdempotentAndKindChecked(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x_total", "") != r.Counter("x_total", "") {
		t.Error("second Counter call returned a different instrument")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second").Add(2)
	r.Counter("a_total", "first").Inc()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Sorted by name, counters before latency histogram.
	for _, want := range []string{
		"# HELP a_total first\n# TYPE a_total counter\na_total 1\n",
		"# TYPE b_total counter\nb_total 2\n",
		"lat_seconds_bucket{le=\"0.1\"} 1\n",
		"lat_seconds_bucket{le=\"1\"} 2\n",
		"lat_seconds_bucket{le=\"+Inf\"} 3\n",
		"lat_seconds_sum 2.55\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Errorf("metrics not sorted by name:\n%s", out)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Errorf("body missing counter:\n%s", rec.Body.String())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	g := r.Gauge("lvl", "")
	h := r.Histogram("obs", "", []float64{10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != 8000 || h.Sum() != 8000 {
		t.Errorf("histogram = (%d, %g), want (8000, 8000)", h.Count(), h.Sum())
	}
}
