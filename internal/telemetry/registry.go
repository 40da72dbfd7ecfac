// Package telemetry is Caladrius' self-observation layer over the
// instrument registry (internal/instrument): the /metrics handler, the
// scraper that walks the registry in place into queryable history, the
// SLO evaluator over that history, lightweight span tracing for
// model-pipeline runs and the in-memory log ring. The registry itself
// lives in the leaf package so that code which only counts (the
// simulator, the metrics providers) does not link net/http.
package telemetry

import (
	"encoding/json"
	"net/http"
	"strings"

	"caladrius/internal/instrument"
)

// Registry and NewRegistry name the instrument registry for the
// benchmark module's composition root (benchmark/stack.go), which
// predates internal/instrument. Everything else in the module uses
// internal/instrument directly.
type Registry = instrument.Registry

// NewRegistry returns an empty instrument registry.
func NewRegistry() *Registry { return instrument.NewRegistry() }

// Handler serves the registry: Prometheus text by default, JSON with
// ?format=json or an application/json Accept header.
func Handler(r *instrument.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(r.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
