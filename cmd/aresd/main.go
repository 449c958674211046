// Command aresd is the networked assessment daemon: it serves the
// internal/serve HTTP API (job queueing with backpressure, singleflight
// dedup of identical specs, finished results kept with their campaigns,
// SSE progress, Prometheus metrics, the CPV catalog and the /v1/dist/*
// fleet protocol) backed by the ARES campaign executor. Every daemon is
// built the same way, by serve.New: one internal/dist coordinator serving
// one API, with -workers in-process workers and any number of remote
// workers joining it.
//
// Daemon mode:
//
//	aresd [-addr :8080] [-store DIR] [-workers N] [-queue N] [-parallel N]
//	      [-lease-ttl D] [-lease-batch N] [-drain D]
//
// -workers 0 is a pure fleet coordinator: only remote workers execute.
// SIGINT/SIGTERM drains gracefully: the daemon stops accepting, finishes
// in-flight jobs (up to -drain), releases outstanding remote leases,
// persists the queue manifest, and a restarted daemon with the same
// -store completes the remainder. Nothing authenticates, so run aresd on
// a trusted network.
//
// Fleet mode shards campaigns across machines (internal/dist). Any
// number of workers join one daemon:
//
//	aresd -worker -join http://coordinator:8080 [-id NAME] [-workers N]
//
// The fleet protocol is four POSTs: lease, wait, heartbeat and records.
// A worker's first lease is its hello, each granted lease carries the
// campaign spec and heartbeat interval it needs, and a lease ends with
// its last record. A killed worker
// costs nothing but its lease TTL; the fleet's merged artifacts are
// byte-identical to a local run of the same spec.
//
// Client mode (so CI can exercise the full loop without curl):
//
//	aresd -addr host:port -submit spec.json [-wait] [-timeout D]
//
// -submit POSTs the JSON spec ("-" reads stdin) and prints the job ID;
// with -wait it polls the job until terminal, prints the aggregated
// summary, and exits non-zero if the job failed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/dist"
	"github.com/ares-cps/ares/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "aresd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("aresd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (daemon) or daemon address/URL (client)")
	storeDir := fs.String("store", "aresd-store", "artifact + queue-manifest directory")
	queueDepth := fs.Int("queue", 0, "submission queue depth, backpressure beyond this (0 = 64)")
	workers := fs.Int("workers", 2, "concurrent jobs: in-process workers (0 = pure fleet coordinator), or with -worker, leased jobs")
	parallel := fs.Int("parallel", 0, "machine-wide parallelism budget shared by running jobs (0 = all CPUs)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
	submit := fs.String("submit", "", "client mode: POST this spec file (\"-\" = stdin) to -addr")
	wait := fs.Bool("wait", false, "with -submit: poll until the job finishes and print the summary")
	timeout := fs.Duration("timeout", 10*time.Minute, "with -wait: give up after this long")
	worker := fs.Bool("worker", false, "fleet mode: execute job leases from the -join coordinator")
	join := fs.String("join", "", "worker mode: coordinator address or URL to join")
	workerID := fs.String("id", "", "worker mode: stable worker identity (default host-pid)")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "remote-worker lease lifetime without a heartbeat")
	leaseBatch := fs.Int("lease-batch", 8, "max jobs per remote-worker lease")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *submit != "" {
		return clientSubmit(*addr, *submit, *wait, *timeout, stdout, stderr)
	}
	if *worker {
		return workerDaemon(*join, *workerID, *workers, stderr)
	}
	srv, err := serve.New(serve.Config{
		StoreDir:    *storeDir,
		QueueDepth:  *queueDepth,
		Workers:     *workers,
		Parallelism: *parallel,
		LeaseTTL:    *leaseTTL,
		MaxLease:    *leaseBatch,
		Log:         stderr,
	})
	if err != nil {
		return err
	}
	srv.Start()
	fmt.Fprintf(stderr, "aresd: listening on %s (store %s, %d in-process workers)\n",
		*addr, *storeDir, *workers)
	return serveUntilSignal(*addr, srv, *drain, stderr)
}

// serveUntilSignal serves srv on addr until SIGINT/SIGTERM (see serveUntil).
func serveUntilSignal(addr string, srv *serve.Server, drain time.Duration, stderr io.Writer) error {
	ctx, cancel := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveUntil(ctx, ln, srv, drain, stderr)
}

// serveUntil serves srv on ln until ctx ends, then drains srv, which gets
// up to drain to finish in-flight work and persist the queue manifest,
// and only then closes the listener. Draining first keeps the API up for
// remote workers streaming their last records, and answers every parked
// worker wait at once; the requests still open after the drain (SSE
// streams) are cancelled, so none of them holds the exit.
func serveUntil(ctx context.Context, ln net.Listener, srv *serve.Server, drain time.Duration, stderr io.Writer) error {
	// Requests and the drain outlive ctx, which ends to start the drain.
	detached := context.WithoutCancel(ctx)
	reqCtx, cancelReqs := context.WithCancel(detached)
	defer cancelReqs()
	httpSrv := &http.Server{Handler: srv.Handler(),
		BaseContext: func(net.Listener) context.Context { return reqCtx }}
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stderr, "aresd: draining (up to %s)...\n", drain)
	drainCtx, stop := context.WithTimeout(detached, drain)
	defer stop()
	err := srv.Shutdown(drainCtx)
	cancelReqs()
	_ = httpSrv.Shutdown(drainCtx)
	if err != nil {
		return err
	}
	fmt.Fprintln(stderr, "aresd: queue persisted; bye")
	return nil
}

// workerDaemon joins a coordinator and executes leases until signalled.
func workerDaemon(join, id string, jobs int, stderr io.Writer) error {
	if join == "" {
		return errors.New("-worker requires -join")
	}
	cfg := dist.WorkerConfig{
		Coordinator: baseURL(join),
		ID:          id,
		Jobs:        jobs,
		Log:         stderr,
	}
	w, err := dist.NewWorker(cfg)
	if err != nil {
		return err
	}
	ctx, cancel := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer cancel()
	fmt.Fprintf(stderr, "aresd: worker %s joining %s (%d jobs)\n",
		w.ID(), cfg.Coordinator, jobs)
	if err := w.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "aresd: worker %s stopped\n", w.ID())
	return nil
}

// baseURL normalizes -addr into an http URL.
func baseURL(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimSuffix(addr, "/")
	}
	if strings.HasPrefix(addr, ":") {
		addr = "localhost" + addr
	}
	return "http://" + addr
}

func clientSubmit(addr, specPath string, wait bool, timeout time.Duration, stdout, stderr io.Writer) error {
	var data []byte
	var err error
	if specPath == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(specPath)
	}
	if err != nil {
		return err
	}
	base := baseURL(addr)
	client := &http.Client{Timeout: 30 * time.Second}

	st, err := postSpec(client, base, data)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "job %s %s\n", st.ID, st.State)
	if !wait {
		return nil
	}

	deadline := time.Now().Add(timeout)
	for st.State != dist.StateDone && st.State != dist.StateFailed {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after %s", st.ID, st.State, timeout)
		}
		time.Sleep(200 * time.Millisecond)
		if st, err = getJSON[dist.JobStatus](client, base+"/v1/jobs/"+st.ID); err != nil {
			return err
		}
	}
	if st.State == dist.StateFailed {
		return fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
	res, err := getJSON[dist.Result](client, base+"/v1/results/"+st.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "job %s done\n", st.ID)
	return res.Summary.WriteText(stdout)
}

func postSpec(client *http.Client, base string, body []byte) (dist.JobStatus, error) {
	resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return dist.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return dist.JobStatus{}, apiError(resp)
	}
	var st dist.JobStatus
	if err := decodeBody(resp.Body, &st); err != nil {
		return dist.JobStatus{}, err
	}
	return st, nil
}

func getJSON[T any](client *http.Client, url string) (T, error) {
	var v T
	resp, err := client.Get(url)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, apiError(resp)
	}
	return v, decodeBody(resp.Body, &v)
}

func apiError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	if decodeBody(resp.Body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return errors.New(resp.Status)
}

// maxBodyBytes caps API response bodies the client will decode — the
// client-side mirror of the server's request size limits. Status and
// result documents are a few KB; a megabyte is generous headroom.
const maxBodyBytes = 1 << 20

// decodeBody decodes exactly one JSON document from an API response
// body under the repository's strict-decode convention: size-capped,
// unknown fields rejected, trailing data rejected. Both ends of this
// protocol live in this module, so a field the client does not know is
// a version skew worth failing loudly on, not ignoring.
func decodeBody(r io.Reader, v any) error {
	return campaign.DecodeStrict(io.LimitReader(r, maxBodyBytes), v)
}
