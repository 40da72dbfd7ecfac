package api

import (
	"context"
	"net/http"
	"strconv"

	"caladrius/internal/audit"
	"caladrius/internal/core"
	"caladrius/internal/telemetry"
)

// The prediction audit surface: every model run the service performs
// is recorded into the audit ledger (internal/audit), and exposed
// read-only here.

// recordRun audits one completed model run: audit.RunRecord fills
// what the model determines, and this adds the request-scoped identity
// core does not know — topology, model kind, trace id, tenant, cost,
// whether the run was counterfactual and whether its calibration was
// served from the cache (or another request's in-flight calibration)
// rather than performed fresh.
func (s *Service) recordRun(ctx context.Context, rec audit.Record, topology, model string, counterfactual, cachedCal bool, cost core.RunCost) {
	rec.Topology, rec.Model = topology, model
	rec.TraceID, rec.Tenant = telemetry.SpanFromContext(ctx).TraceID(), RequestTenant(ctx)
	rec.Cost, rec.Counterfactual, rec.CachedCalibration = &cost, counterfactual, cachedCal
	s.audit.Record(rec)
}

// AuditListResponse is the payload of GET /api/v1/audit.
type AuditListResponse struct {
	Records []audit.Record `json:"records"`
	Count   int            `json:"count"`
	Stats   []audit.Stats  `json:"stats"`
}

// AuditRecordResponse is the payload of GET /api/v1/audit/{id}: the
// record plus a link to its model-pipeline trace when one was sampled.
type AuditRecordResponse struct {
	audit.Record
	Trace string `json:"trace,omitempty"`
}

func (s *Service) handleAuditList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	// Unknown parameters are rejected, not silently ignored — a typoed
	// filter (tennant=acme) would otherwise return unfiltered records
	// that look filtered.
	for k := range q {
		switch k {
		case "topology", "model", "tenant", "resolved", "since", "until", "limit":
		default:
			httpError(w, http.StatusBadRequest, "unknown query parameter "+strconv.Quote(k)+
				" (want topology, model, tenant, resolved, since, until, limit)")
			return
		}
	}
	f := audit.Filter{
		Topology: q.Get("topology"),
		Model:    q.Get("model"),
		Tenant:   q.Get("tenant"),
	}
	if v := q.Get("resolved"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "resolved: want true or false")
			return
		}
		f.Resolved = &b
	}
	if v := q.Get("since"); v != "" {
		t, err := parseRangeTime(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "since: "+err.Error())
			return
		}
		f.Since = t
	}
	if v := q.Get("until"); v != "" {
		t, err := parseRangeTime(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "until: "+err.Error())
			return
		}
		f.Until = t
	}
	var ok bool
	if f.Limit, ok = positiveParam(w, q, "limit", 50); !ok {
		return
	}
	recs := s.audit.List(f)
	if recs == nil {
		recs = []audit.Record{}
	}
	writeJSON(w, http.StatusOK, AuditListResponse{Records: recs, Count: len(recs), Stats: s.audit.Stats()})
}

func (s *Service) handleAuditRecord(w http.ResponseWriter, r *http.Request) {
	idStr := r.PathValue("id")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil || id <= 0 {
		httpError(w, http.StatusBadRequest, "bad audit record id "+strconv.Quote(idStr))
		return
	}
	rec, ok := s.audit.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no audit record "+idStr+" (evicted or never recorded)")
		return
	}
	resp := AuditRecordResponse{Record: rec}
	if rec.TraceID != "" {
		resp.Trace = "/api/v1/jobs/" + rec.TraceID + "/trace"
	}
	writeJSON(w, http.StatusOK, resp)
}
