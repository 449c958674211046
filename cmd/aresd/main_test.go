package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/dist"
	"github.com/ares-cps/ares/internal/metrics"
	"github.com/ares-cps/ares/internal/serve"
)

// startDaemon serves an in-process daemon with a fake executor so the
// client mode can be exercised end to end without opening a port.
func startDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Config{
		StoreDir: t.TempDir(),
		Workers:  1,
		Metrics:  metrics.NewRegistry(),
		Executor: func(_ context.Context, job campaign.Job) (campaign.Metrics, error) {
			return campaign.Metrics{Deviation: 6, Success: true}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return ts
}

func TestClientSubmitWait(t *testing.T) {
	ts := startDaemon(t)
	specPath := filepath.Join(t.TempDir(), "spec.json")
	spec := `{"name":"cli","seed":3,"missions":[{"kind":"line","size":40,"alt":10}],"variables":["PIDR.INTEG"],"trials":2,"episodes":1,"max_steps":4}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	err := run([]string{"-addr", ts.URL, "-submit", specPath, "-wait", "-timeout", "30s"},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "done") {
		t.Errorf("output missing completion:\n%s", out)
	}
	if !strings.Contains(out, "Campaign cli — 2 jobs") {
		t.Errorf("output missing summary:\n%s", out)
	}

	// A second submit of the same spec is served from the cache and still
	// prints the summary.
	stdout.Reset()
	if err := run([]string{"-addr", ts.URL, "-submit", specPath, "-wait"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "Campaign cli — 2 jobs") {
		t.Errorf("cached output missing summary:\n%s", stdout.String())
	}
}

func TestClientSubmitInvalidSpec(t *testing.T) {
	ts := startDaemon(t)
	specPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(specPath, []byte(`{"goals":["teleport"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err := run([]string{"-addr", ts.URL, "-submit", specPath}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "teleport") {
		t.Fatalf("err = %v, want the daemon's validation error", err)
	}
}

// TestFleetFlagValidation pins the fleet-mode flag contract.
func TestFleetFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-worker"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-join") {
		t.Errorf("-worker without -join: err = %v, want join error", err)
	}
	err = run([]string{"-worker", "-join", "http://x", "-id", "bad id"}, &stdout, &stderr)
	if err == nil {
		t.Error("-worker with malformed -id accepted")
	}
}

// TestClientAgainstCoordinator proves the unchanged client mode drives a
// fleet: -submit/-wait against a pure coordinator (serve.New with no
// in-process workers) whose jobs a remote dist worker executes.
func TestClientAgainstCoordinator(t *testing.T) {
	c, err := serve.New(serve.Config{
		StoreDir: t.TempDir(),
		Workers:  0,
		Metrics:  metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Shutdown(context.Background())
	})

	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator: ts.URL, ID: "cli-w0", Jobs: 1,
		Execute: func(_ context.Context, job campaign.Job) (campaign.Metrics, error) {
			return campaign.Metrics{Deviation: 6, Success: true}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(wctx) }()
	t.Cleanup(func() { wcancel(); <-done })

	specPath := filepath.Join(t.TempDir(), "spec.json")
	spec := `{"name":"fleet-cli","seed":3,"missions":[{"kind":"line","size":40,"alt":10}],"variables":["PIDR.INTEG"],"trials":2,"episodes":1,"max_steps":4}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-addr", ts.URL, "-submit", specPath, "-wait", "-timeout", "30s"},
		&stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Campaign fleet-cli — 2 jobs") {
		t.Errorf("output missing fleet summary:\n%s", stdout.String())
	}
}

// TestDecodeBodyStrict: a response body must hold exactly one JSON
// document whose fields the client knows; stray closing brackets after it
// are trailing data, not whitespace.
func TestDecodeBodyStrict(t *testing.T) {
	var st dist.JobStatus
	if err := decodeBody(strings.NewReader(`{"id":"a","state":"done","events":1}`+" \n"), &st); err != nil || st.ID != "a" {
		t.Fatalf("good body: %+v, %v", st, err)
	}
	for _, body := range []string{
		``,
		`{"id":"a"}]`,
		`{"id":"a"}}`,
		`{"id":"a"} {"id":"b"}`,
		`{"id":"a"} x`,
		`{"id":"a","bogus":1}`,
	} {
		var st dist.JobStatus
		if err := decodeBody(strings.NewReader(body), &st); err == nil {
			t.Errorf("decodeBody(%q) accepted", body)
		}
	}
}

func TestBaseURL(t *testing.T) {
	for in, want := range map[string]string{
		":8080":                 "http://localhost:8080",
		"10.0.0.1:9":            "http://10.0.0.1:9",
		"http://h:1/":           "http://h:1",
		"https://ares.internal": "https://ares.internal",
		"localhost:8080":        "http://localhost:8080",
	} {
		if got := baseURL(in); got != want {
			t.Errorf("baseURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// waitSpy is a fleet worker's transport that reports each wait it sends.
type waitSpy struct{ sent chan<- struct{} }

func (s waitSpy) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/dist/wait" {
		select {
		case s.sent <- struct{}{}:
		default:
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestShutdownDrainsFirst: a signal drains the coordinator before the
// listener closes, so a fleet worker parked in a wait cannot hold the
// exit for the drain budget, and the in-process campaign finishes rather
// than being cancelled by a budget the listener used up.
func TestShutdownDrainsFirst(t *testing.T) {
	dir := t.TempDir()
	var cancelled atomic.Bool
	s, err := serve.New(serve.Config{
		StoreDir: dir, Workers: 1, Metrics: metrics.NewRegistry(),
		Executor: func(ctx context.Context, _ campaign.Job) (campaign.Metrics, error) {
			select {
			case <-time.After(200 * time.Millisecond):
				return campaign.Metrics{Deviation: 6, Success: true}, nil
			case <-ctx.Done():
				cancelled.Store(true)
				return campaign.Metrics{}, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	sigCtx, sigterm := context.WithCancel(context.Background())
	defer sigterm()
	var stderr bytes.Buffer
	served := make(chan error, 1)
	go func() { served <- serveUntil(sigCtx, ln, s, 5*time.Second, &stderr) }()

	spec := `{"name":"drain","seed":3,"missions":[{"kind":"line","size":40,"alt":10}],"variables":["PIDR.INTEG"],"trials":1,"episodes":1,"max_steps":4}`
	st, err := postSpec(http.DefaultClient, base, []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	for st.State != "running" {
		time.Sleep(5 * time.Millisecond)
		if st, err = getJSON[dist.JobStatus](http.DefaultClient, base+"/v1/jobs/"+st.ID); err != nil {
			t.Fatal(err)
		}
	}

	// The in-process worker holds every job, so a fleet worker parks.
	sent := make(chan struct{}, 1)
	w, err := dist.NewWorker(dist.WorkerConfig{Coordinator: base, ID: "parked",
		Client: &http.Client{Timeout: 30 * time.Second, Transport: waitSpy{sent}}})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	exited := make(chan struct{})
	go func() { defer close(exited); _ = w.Run(wctx) }()
	defer func() { wcancel(); <-exited }()
	<-sent
	time.Sleep(20 * time.Millisecond) // the wait reaches the coordinator

	start := time.Now()
	sigterm()
	if err := <-served; err != nil {
		t.Fatalf("serveUntil = %v\nstderr: %s", err, stderr.String())
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("shutdown took %v with a parked fleet worker, want < 1s", d)
	}
	if cancelled.Load() {
		t.Error("the in-process campaign was cancelled by the shutdown")
	}
	if _, err := os.Stat(dist.SortedArtifactPath(dir, st.ID)); err != nil {
		t.Errorf("campaign did not finish during the drain: %v", err)
	}
}
