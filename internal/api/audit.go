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
// is recorded into the audit ledger (internal/audit) through the
// core.RunRecorder hook, and exposed read-only here.

// ledgerRecorder adapts the audit ledger to core.RunRecorder, binding
// the request-scoped identity core does not know: topology name, model
// kind, trace id and whether the run was counterfactual.
type ledgerRecorder struct {
	led            *audit.Ledger
	topology       string
	model          string
	traceID        string
	tenant         string
	counterfactual bool
	cachedCal      bool
}

func (r ledgerRecorder) RecordRun(run core.ModelRun) {
	p := run.Prediction
	cp := p.CriticalPath()
	sink := ""
	if len(cp.Path) > 0 {
		sink = cp.Path[len(cp.Path)-1]
	}
	cost := run.Cost
	r.led.Record(audit.Record{
		Topology:          r.topology,
		Model:             r.model,
		TraceID:           r.traceID,
		Tenant:            r.tenant,
		Cost:              &cost,
		SourceRateTPM:     run.SourceRate,
		Parallelism:       run.Parallelism,
		Counterfactual:    r.counterfactual,
		Degraded:          run.Degraded,
		CachedCalibration: r.cachedCal,
		Calibration:       run.Calibration,
		Predicted: audit.Predicted{
			SinkTPM:             p.SinkThroughput,
			OutputTPM:           cp.OutputRate,
			SaturationSourceTPM: finiteSaturation(p.SaturationSource),
			Bottleneck:          p.Bottleneck,
			Risk:                string(p.Risk),
			TotalCPUCores:       p.TotalCPU,
			Sink:                sink,
		},
	})
}

// auditRecorder builds the RunRecorder for one model run. cachedCal
// marks runs whose calibration was served from the cache (or another
// request's in-flight calibration) rather than performed fresh.
func (s *Service) auditRecorder(ctx context.Context, topology, model string, counterfactual, cachedCal bool) core.RunRecorder {
	return ledgerRecorder{
		led:            s.audit,
		topology:       topology,
		model:          model,
		traceID:        telemetry.SpanFromContext(ctx).TraceID(),
		tenant:         RequestTenant(ctx),
		counterfactual: counterfactual,
		cachedCal:      cachedCal,
	}
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
