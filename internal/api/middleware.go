package api

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/usage"
)

// --- request trace ids -----------------------------------------------------

// Every request gets a trace id the moment it enters the middleware:
// the sanitized incoming X-Caladrius-Trace header when the client sent
// one, else a generated "req-N". The id is echoed in the response
// header, stamped on the access-log line, attached to the latency
// histogram as an exemplar, and reused by the sync dispatch path as
// the tracer's trace id — so logs, spans and metrics of one request
// all join on a single id.

type reqTraceKey struct{}

var traceSeq atomic.Uint64

// RequestTraceID returns the trace id the middleware assigned to the
// request, or "" when the request did not pass through instrumentHTTP
// (direct handler tests).
func RequestTraceID(ctx context.Context) string {
	id, _ := ctx.Value(reqTraceKey{}).(string)
	return id
}

// isToken reports whether a client-supplied trace id or tenant is
// short and printable-token shaped, so log lines, response headers and
// metric label values cannot be polluted with arbitrary bytes.
func isToken(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return false
		}
	}
	return true
}

// --- tenants ---------------------------------------------------------------

// TenantHeader names the header clients identify themselves with.
// Requests without it (or with a malformed value) are charged to
// AnonymousTenant — attribution never rejects a request.
const TenantHeader = "X-Caladrius-Tenant"

// AnonymousTenant is the principal unidentified requests bill to.
const AnonymousTenant = "anonymous"

type reqTenantKey struct{}

// RequestTenant returns the sanitized tenant the middleware attributed
// the request to, or AnonymousTenant when the request did not pass
// through instrumentHTTP (direct handler tests, async job contexts built
// before the tenant was re-injected).
func RequestTenant(ctx context.Context) string {
	if t, _ := ctx.Value(reqTenantKey{}).(string); t != "" {
		return t
	}
	return AnonymousTenant
}

// ContextWithTenant stamps a tenant onto ctx — the hook dispatch uses
// to carry the request's tenant into an async job's fresh context.
func ContextWithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, reqTenantKey{}, tenant)
}

// statusClasses index requests_total counters: status/100-1.
var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// routeInstruments holds the pre-registered instruments of one route
// label, so the per-request hot path performs only atomic increments —
// no registrations, no lookups, no allocations.
type routeInstruments struct {
	label    string
	requests [5]*instrument.Counter
	latency  *instrument.Histogram
	bytes    *instrument.Counter
}

// httpInstruments is the middleware's instrument set: routes[i] counts
// the requests of table[i], other those no row matched.
type httpInstruments struct {
	inFlight *instrument.Gauge
	panics   *instrument.Counter
	routes   []*routeInstruments
	other    *routeInstruments
}

func newHTTPInstruments(reg *instrument.Registry, table []route) *httpInstruments {
	reg.SetHelp("caladrius_http_requests_total", "Requests served, by route pattern and status class.")
	reg.SetHelp("caladrius_http_request_duration_seconds", "Request latency, by route pattern.")
	reg.SetHelp("caladrius_http_response_bytes_total", "Response body bytes written, by route pattern.")
	reg.SetHelp("caladrius_http_in_flight_requests", "Requests currently being served.")
	reg.SetHelp("caladrius_http_panics_total", "Handler panics recovered by the middleware.")
	register := func(label string) *routeInstruments {
		ri := &routeInstruments{
			label:   label,
			latency: reg.Histogram("caladrius_http_request_duration_seconds", instrument.DefLatencyBuckets, instrument.Labels{"route": label}),
			bytes:   reg.Counter("caladrius_http_response_bytes_total", instrument.Labels{"route": label}),
		}
		for i, class := range statusClasses {
			ri.requests[i] = reg.Counter("caladrius_http_requests_total", instrument.Labels{"route": label, "class": class})
		}
		return ri
	}
	h := &httpInstruments{
		inFlight: reg.Gauge("caladrius_http_in_flight_requests", nil),
		panics:   reg.Counter("caladrius_http_panics_total", nil),
		other:    register(otherRoute),
	}
	for _, rt := range table {
		h.routes = append(h.routes, register(rt.pattern))
	}
	return h
}

// statusRecorder captures what becomes of one request: the status code
// and body size the handler writes, and the route ServeMux matched it
// to. wroteHeader distinguishes "handler never responded" (the
// panic-recovery path may still send a 500) from "panicked mid-body"
// (too late — the status is already on the wire).
type statusRecorder struct {
	http.ResponseWriter
	status      int
	bytes       int
	wroteHeader bool

	// route and topology are the request's metric label set and usage
	// principal topology, stamped by matched.
	route    *routeInstruments
	topology string
	tenant   string
	acct     *usage.Accountant
}

// matched records the route the request belongs to and opens its usage
// attribution. The matched row's wrapper (Service.serve) calls it before
// the handler runs; the middleware calls it for the requests no row
// claimed.
func (r *statusRecorder) matched(ri *routeInstruments, topology string) {
	r.route, r.topology = ri, topology
	r.acct.Begin(r.tenant, topology)
}

func (r *statusRecorder) WriteHeader(status int) {
	if r.wroteHeader {
		return // mirror net/http's superfluous-WriteHeader guard
	}
	r.status = status
	r.wroteHeader = true
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wroteHeader = true
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// instrumentHTTP wraps next with request telemetry and the structured
// access log: per-route request counters by status class, latency
// histograms, response-byte counters, an in-flight gauge, and one log
// line per request on the service logger. A panicking handler is
// recovered here — the client gets a JSON 500 (when the header is
// still unsent), the stack goes to the logger, and the request still
// lands in every instrument so panic spikes show up in the history.
//
// Every request is additionally attributed in acct to its (tenant,
// topology) usage principal: tenant from the sanitized
// X-Caladrius-Tenant header, topology from the matched route. The
// accountant's top-K cap makes this safe against hostile
// high-cardinality headers.
//
// next is the ServeMux the route table is registered on; the row it
// matches reports itself through statusRecorder.matched.
func instrumentHTTP(next http.Handler, inst *httpInstruments, logger *slog.Logger, acct *usage.Accountant) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inst.inFlight.Inc()
		trace := r.Header.Get(TraceHeader)
		if !isToken(trace) {
			trace = "req-" + strconv.FormatUint(traceSeq.Add(1), 10)
		}
		w.Header().Set(TraceHeader, trace)
		// A tenant that is not a token — empty, oversized, binary —
		// bills as anonymous.
		tenant := r.Header.Get(TenantHeader)
		if !isToken(tenant) {
			tenant = AnonymousTenant
		}
		ctx := context.WithValue(r.Context(), reqTraceKey{}, trace)
		r = r.WithContext(ContextWithTenant(ctx, tenant))
		rec := statusRecorder{ResponseWriter: w, status: http.StatusOK, tenant: tenant, acct: acct}
		defer func() {
			if v := recover(); v != nil {
				inst.panics.Inc()
				logger.Error("handler panic",
					"method", r.Method,
					"path", r.URL.Path,
					"panic", v,
					"stack", string(debug.Stack()),
				)
				if !rec.wroteHeader {
					httpError(&rec, http.StatusInternalServerError, "internal server error")
				} else {
					rec.status = http.StatusInternalServerError
				}
			}
			inst.inFlight.Dec()

			elapsed := time.Since(start)
			if rec.route == nil {
				// No row claimed the request: an unknown path, or one
				// ServeMux redirected to its clean form by itself.
				rec.matched(inst.other, NoTopology)
			}
			ri := rec.route
			idx := rec.status/100 - 1
			if idx < 0 || idx >= len(ri.requests) {
				idx = 4
			}
			// Async dispatch overwrites the response header with the job
			// id; reading it back here keeps the logged trace id and the
			// exemplar pointing at the trace that actually exists.
			if hdr := rec.Header().Get(TraceHeader); hdr != "" {
				trace = hdr
			}
			ri.requests[idx].Inc()
			ri.latency.ObserveExemplar(elapsed.Seconds(), trace)
			ri.bytes.Add(float64(rec.bytes))
			acct.Finish(tenant, rec.topology, rec.status, elapsed)
			logger.Info("http request",
				"method", r.Method,
				"route", ri.label,
				"path", r.URL.Path,
				"status", rec.status,
				"bytes", rec.bytes,
				"duration_ms", float64(elapsed)/float64(time.Millisecond),
				"trace", trace,
				"tenant", tenant,
			)
		}()
		next.ServeHTTP(&rec, r)
	})
}
