package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/cpv"
	"github.com/ares-cps/ares/internal/dist"
	"github.com/ares-cps/ares/internal/metrics"
)

// cpvMetrics instruments the catalog surface of the daemon.
type cpvMetrics struct {
	assess         *metrics.Counter
	compileErrors  *metrics.Counter
	catalogRecords *metrics.Gauge
}

func newCPVMetrics(r *metrics.Registry) cpvMetrics {
	m := cpvMetrics{
		assess:         r.Counter("ares_cpv_assess_total", "catalog assessments submitted via POST /v1/cpvs/{id}/assess"),
		compileErrors:  r.Counter("ares_cpv_compile_errors_total", "catalog assessments rejected because compilation failed"),
		catalogRecords: r.Gauge("ares_cpv_catalog_records", "built-in CPV catalog records served at GET /v1/cpvs"),
	}
	m.catalogRecords.Set(int64(len(cpv.Catalog())))
	return m
}

// assessRequest is the optional POST /v1/cpvs/{id}/assess body: the shared
// budgets a catalog record does not carry. Zero values inherit the
// compiler/campaign defaults.
type assessRequest struct {
	Seed     int64  `json:"seed,omitempty"`
	Trials   int    `json:"trials,omitempty"`
	Episodes int    `json:"episodes,omitempty"`
	MaxSteps int    `json:"max_steps,omitempty"`
	Learner  string `json:"learner,omitempty"`
}

// decodeAssess strictly parses the optional assess body; an empty body is
// the zero request.
func decodeAssess(r io.Reader) (assessRequest, error) {
	var req assessRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err == io.EOF {
		return assessRequest{}, nil
	} else if err != nil {
		return assessRequest{}, err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return assessRequest{}, fmt.Errorf("trailing data after request")
	}
	return req, nil
}

// handleCPVList serves the built-in catalog (GET /v1/cpvs).
func handleCPVList(w http.ResponseWriter, _ *http.Request) {
	dist.WriteJSON(w, http.StatusOK, map[string]any{"cpvs": cpv.Catalog()})
}

// handleCPVGet serves one catalog record (GET /v1/cpvs/{id}).
func handleCPVGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := cpv.Get(r.PathValue("id"))
	if !ok {
		dist.WriteErr(w, http.StatusNotFound, "unknown cpv record")
		return
	}
	dist.WriteJSON(w, http.StatusOK, rec)
}

// handleCPVAssess compiles one catalog record into a campaign spec and
// submits it through the normal content-addressed queue (POST
// /v1/cpvs/{id}/assess): dedup, caching, SSE and resume all apply exactly
// as for a hand-written POST /v1/jobs spec, because the compiled spec IS a
// normal spec — the CPV ID rides along in the sweep block and the job
// keys, so the result's records stay traceable to the catalog entry.
func (s *Server) handleCPVAssess(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := cpv.Get(id); !ok {
		dist.WriteErr(w, http.StatusNotFound, "unknown cpv record")
		return
	}
	req, err := decodeAssess(http.MaxBytesReader(w, r.Body, campaign.MaxSpecBytes))
	if err != nil {
		dist.WriteErr(w, http.StatusBadRequest, "invalid assess request: %v", err)
		return
	}
	spec, err := cpv.CompileIDs(cpv.Options{
		Name:     "cpv:" + id,
		Seed:     req.Seed,
		Trials:   req.Trials,
		Episodes: req.Episodes,
		MaxSteps: req.MaxSteps,
		Learner:  req.Learner,
	}, id)
	if err != nil {
		s.cpvMx.compileErrors.Inc()
		dist.WriteErr(w, http.StatusBadRequest, "compile %s: %v", id, err)
		return
	}
	s.cpvMx.assess.Inc()
	s.coord.ServeSubmit(w, spec, s.cfg.QueueDepth)
}
