package dist

import (
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/ares-cps/ares/internal/campaign"
)

// Handler returns the coordinator's HTTP API, the one mux every daemon
// mode serves, on a fresh mux the caller may add routes to:
//
//	POST /v1/jobs             submit a campaign.Spec (JSON); 202 accepted,
//	                          deduped onto an in-flight twin or retried, 200
//	                          when already done, 429 + Retry-After when
//	                          QueueDepth campaigns already wait, 503 while
//	                          draining
//	GET  /v1/jobs/{id}        campaign status
//	GET  /v1/jobs/{id}/events campaign progress as Server-Sent Events
//	GET  /v1/results/{id}     aggregated report of a finished campaign
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             liveness, queue depth and fleet gauges
//
// plus the /v1/dist/* worker fleet protocol:
//
//	GET  /v1/dist/campaigns/{id}/spec campaign spec for worker-side expansion
//	POST /v1/dist/register            worker hello → lease TTL + heartbeat interval
//	POST /v1/dist/lease               lease a job batch (empty lease = nothing
//	                                  pending now, with the wake counter)
//	POST /v1/dist/wait                park until the wake counter moves past the
//	                                  one named, a drain, or min(LeaseTTL/4, 20s)
//	POST /v1/dist/heartbeat           keep a lease alive (or learn to abandon it)
//	POST /v1/dist/records             stream finished records (resumable offsets)
//	POST /v1/dist/complete            retire a fully-streamed lease
//
// Nothing here authenticates: the daemon belongs on a trusted network.
func (c *Coordinator) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := campaign.DecodeSpec(http.MaxBytesReader(w, r.Body, campaign.MaxSpecBytes))
		if err != nil {
			WriteErr(w, http.StatusBadRequest, "invalid spec: %v", err)
			return
		}
		c.ServeSubmit(w, spec)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("GET /v1/results/{id}", c.handleResult)
	mux.Handle("GET /metrics", c.cfg.Metrics.Handler())
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /v1/dist/campaigns/{id}/spec", c.handleSpec)
	// One pattern for the six POST envelopes: every daemon and test
	// builds this mux, and ServeMux registration costs a few µs per
	// pattern.
	mux.HandleFunc("POST /v1/dist/{op}", c.handleFleet)
	return mux
}

// handleFleet dispatches one POST /v1/dist/{op} envelope.
func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	switch r.PathValue("op") {
	case "register":
		c.handleRegister(w, r)
	case "lease":
		c.handleLease(w, r)
	case "wait":
		c.handleWait(w, r)
	case "heartbeat":
		c.handleHeartbeat(w, r)
	case "records":
		c.handleRecords(w, r)
	case "complete":
		c.handleComplete(w, r)
	default:
		WriteErr(w, http.StatusNotFound, "unknown fleet operation")
	}
}

// ServeSubmit submits spec (see Submit) and writes the answer.
func (c *Coordinator) ServeSubmit(w http.ResponseWriter, spec campaign.Spec) {
	st, code := c.Submit(spec)
	switch code {
	case http.StatusTooManyRequests:
		// Retry after roughly one queued campaign's head start; clients in
		// CI poll, humans re-run.
		w.Header().Set("Retry-After", "1")
		WriteErr(w, code, "queue full (%d deep)", c.cfg.QueueDepth)
	case http.StatusServiceUnavailable:
		WriteErr(w, code, "draining: not accepting new jobs")
	case http.StatusInternalServerError:
		WriteErr(w, code, "campaign could not be opened")
	default:
		WriteJSON(w, code, st)
	}
}

// WriteJSON answers with v as indented JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteErr answers with a JSON {"error": ...} document.
func WriteErr(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := c.Status(r.PathValue("id"))
	if !ok {
		WriteErr(w, http.StatusNotFound, "unknown job")
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, code := c.Result(id)
	switch code {
	case http.StatusOK:
		WriteJSON(w, code, res)
	case http.StatusConflict:
		WriteErr(w, code, "job %s has not finished", id)
	default:
		WriteErr(w, code, "unknown result")
	}
}

// handleEvents streams the campaign's progress as SSE: one `progress`
// event per event-log line (history replayed first), then a terminal
// `done` event carrying the final state. The stream also ends when the
// client disconnects.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	log, ok := c.eventsOf(r.PathValue("id"))
	if !ok {
		WriteErr(w, http.StatusNotFound, "unknown job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for i := 0; ; i++ {
		line, ok, final, done := log.next(r.Context(), i)
		if ok {
			fmt.Fprintf(w, "event: progress\ndata: %s\n\n", line)
			fl.Flush()
			continue
		}
		if done && final != "" {
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", final)
			fl.Flush()
		}
		return
	}
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	health := map[string]any{
		"ok":          !c.draining,
		"draining":    c.draining,
		"jobs":        len(c.campaigns),
		"queue_depth": c.queuedLocked(),
		"workers":     len(c.workers),
		"leases":      len(c.leases),
	}
	c.mu.Unlock()
	WriteJSON(w, http.StatusOK, health)
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	spec, ok := c.SpecOf(r.PathValue("id"))
	if !ok {
		WriteErr(w, http.StatusNotFound, "unknown campaign")
		return
	}
	WriteJSON(w, http.StatusOK, spec)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	req, err := decodeWire[registerRequest](http.MaxBytesReader(w, r.Body, maxControlBytes), maxControlBytes)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "invalid register: %v", err)
		return
	}
	resp, err := c.Register(req.Worker)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	req, err := decodeWire[LeaseRequest](http.MaxBytesReader(w, r.Body, maxControlBytes), maxControlBytes)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "invalid lease request: %v", err)
		return
	}
	resp, err := c.Lease(req)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleWait(w http.ResponseWriter, r *http.Request) {
	req, err := decodeWire[WaitRequest](http.MaxBytesReader(w, r.Body, maxControlBytes), maxControlBytes)
	if err == nil {
		err = validWorkerID(req.Worker)
	}
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "invalid wait: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, WaitResponse{Draining: c.wait(r.Context(), req.Wake)})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	req, err := decodeWire[HeartbeatRequest](http.MaxBytesReader(w, r.Body, maxControlBytes), maxControlBytes)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "invalid heartbeat: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, c.Heartbeat(req))
}

func (c *Coordinator) handleRecords(w http.ResponseWriter, r *http.Request) {
	req, err := decodeWire[RecordsRequest](http.MaxBytesReader(w, r.Body, maxRecordsBytes), maxRecordsBytes)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "invalid records batch: %v", err)
		return
	}
	resp, code, err := c.MergeRecords(req)
	if err != nil {
		WriteErr(w, code, "%v", err)
		return
	}
	WriteJSON(w, code, resp)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	req, err := decodeWire[CompleteRequest](http.MaxBytesReader(w, r.Body, maxControlBytes), maxControlBytes)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "invalid complete: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, c.Complete(req))
}
