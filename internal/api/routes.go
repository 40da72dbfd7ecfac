package api

import "net/http"

// subsystem is one of the two dependencies a daemon can run without
// (see Options) that some endpoints need. Built without it, the service
// answers those endpoints 404 with the subsystem's notice — the status
// calctl keys its "disabled on server" messages on.
type subsystem struct {
	enabled func(*Service) bool
	notice  string
}

var (
	needsIncidents = &subsystem{func(s *Service) bool { return s.incidents != nil }, "incident recorder disabled: start the daemon with -incident-dir"}
	needsProfiler  = &subsystem{func(s *Service) bool { return s.profiler != nil }, "continuous profiler disabled: start the daemon with -profile-interval > 0"}
)

// route is one endpoint. pattern is both the http.ServeMux pattern the
// row is registered under and the `route` label of every HTTP series
// the row's requests are counted in; raw paths carry topology names and
// job ids, so aggregating per pattern keeps cardinality bounded no
// matter how many topologies the service models.
type route struct {
	method  string
	pattern string
	handler func(*Service, http.ResponseWriter, *http.Request)
	needs   *subsystem // nil: always served
}

// routes is the endpoint table — the only statement of what the
// service serves. Mux registration, the per-route instruments, the
// method check, the disabled-subsystem 404 and the usage principal's
// topology ({topology}, when the pattern has one) all derive from it;
// TestEndpointDocs holds the package comment and README to it.
var routes = []route{
	{"GET", "/api/v1/health", (*Service).handleHealth, nil},
	{"GET", "/api/v1/models/traffic", (*Service).handleModels, nil},
	{"POST", "/api/v1/model/traffic/{topology}", modelRoute("traffic", (*Service).runTraffic), nil},
	{"POST", "/api/v1/model/traffic/{topology}/rank", modelRoute("rank", (*Service).runRank), nil},
	{"POST", "/api/v1/model/topology/{topology}/performance", modelRoute("performance", (*Service).runPerformance), nil},
	{"POST", "/api/v1/model/topology/{topology}/suggest", modelRoute("suggest", (*Service).runSuggest), nil},
	{"POST", "/api/v1/model/topology/{topology}/calibrate", modelRoute("calibrate", (*Service).runCalibrate), nil},
	{"GET", "/api/v1/model/topology/{topology}/model", modelRoute("model", (*Service).runModel), nil},
	{"GET", "/api/v1/model/topology/{topology}/graph", (*Service).handleGraph, nil},
	{"POST", "/api/v1/model/topology/{topology}/query", modelRoute("graph-query", (*Service).runGraphQuery), nil},
	{"GET", "/api/v1/jobs/{id}", (*Service).handleJob, nil},
	{"GET", "/api/v1/jobs/{id}/trace", (*Service).handleJobTrace, nil},
	{"GET", "/api/v1/query_range", (*Service).handleQueryRange, nil},
	{"GET", "/api/v1/alerts", (*Service).handleAlerts, nil},
	{"GET", "/api/v1/audit", (*Service).handleAuditList, nil},
	{"GET", "/api/v1/audit/{id}", (*Service).handleAuditRecord, nil},
	{"GET", "/api/v1/incidents", (*Service).handleIncidentsList, needsIncidents},
	{"POST", "/api/v1/incidents/capture", (*Service).handleIncidentCapture, needsIncidents},
	{"GET", "/api/v1/incidents/{id}", (*Service).handleIncident, needsIncidents},
	{"GET", "/api/v1/incidents/{id}/artifacts/{name}", (*Service).handleIncidentArtifact, needsIncidents},
	{"GET", "/api/v1/usage", (*Service).handleUsage, nil},
	{"GET", "/api/v1/sched", (*Service).handleSched, nil},
	{"GET", "/api/v1/profiles", (*Service).handleProfiles, needsProfiler},
	{"GET", "/api/v1/profiles/top", (*Service).handleProfilesTop, needsProfiler},
	{"GET", "/api/v1/profiles/diff", (*Service).handleProfilesDiff, needsProfiler},
	{"GET", "/api/v1/profiles/flame", (*Service).handleProfilesFlame, needsProfiler},
	{"POST", "/api/v1/profiles/baseline", (*Service).handleProfilesBaseline, needsProfiler},
}

// otherRoute labels every request no row matched.
const otherRoute = "other"

// NoTopology is the topology value usage attribution charges requests
// whose route has no {topology} segment (health, query_range, …).
const NoTopology = "-"

// router registers table on a ServeMux — which does all the path
// matching — and wraps it in the request middleware. Rows are
// registered without their method so that a wrong-method request still
// matches its row, is counted under its label and gets the JSON 405.
func (s *Service) router(table []route) http.Handler {
	inst := newHTTPInstruments(s.tel, table)
	mux := http.NewServeMux()
	for i := range table {
		mux.Handle(table[i].pattern, s.serve(&table[i], inst.routes[i]))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		httpError(w, http.StatusNotFound, "no such endpoint")
	})
	return instrumentHTTP(mux, inst, s.logger, s.usage)
}

// serve is what ServeMux calls for a matched row: it tells the
// middleware which row (and so which label and usage topology) the
// request belongs to, then answers for the row — 404 when its subsystem
// is off, 405 for the wrong method, else the row's handler.
func (s *Service) serve(rt *route, ri *routeInstruments) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rec, ok := w.(*statusRecorder); ok {
			topo := r.PathValue("topology")
			if topo == "" {
				topo = NoTopology
			}
			rec.matched(ri, topo)
		}
		switch {
		case rt.needs != nil && !rt.needs.enabled(s):
			httpError(w, http.StatusNotFound, rt.needs.notice)
		case r.Method != rt.method:
			httpError(w, http.StatusMethodNotAllowed, "use "+rt.method)
		default:
			rt.handler(s, w, r)
		}
	}
}
