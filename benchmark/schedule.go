package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Schedules are generated from the seed before any request is sent;
// the daemon sees only the requests. The same seed gives a
// byte-identical schedule (see encodeSchedule and its test).

const topologyName = "word-count"

// Operation names, as they appear in api.op.<op>.* metrics.
const (
	opPredict         = "predict"
	opPlan            = "plan"
	opCalibrate       = "calibrate"
	opTraffic         = "traffic"
	opRank            = "rank"
	opForecastPredict = "forecast_predict"
	opTrafficJob      = "traffic_job"
	opQueryRange5m    = "query_range_5m"
	opQueryRange1h    = "query_range_1h"
	opAudit           = "audit"
	opUsage           = "usage"
	opAlerts          = "alerts"
	opSched           = "sched"
	opMetrics         = "metrics"
)

var allOps = []string{
	opPredict, opPlan, opCalibrate, opTraffic, opRank, opForecastPredict, opTrafficJob,
	opQueryRange5m, opQueryRange1h, opAudit, opUsage, opAlerts, opSched, opMetrics,
}

// request is one scheduled operation together with what its answer
// must look like.
type request struct {
	Op     string
	Method string
	Path   string // path and query
	Body   string
	Tenant string
	// Due is the offset from the start of a paced phase at which the
	// request is to be sent; closed-loop requests leave it zero.
	Due time.Duration

	// RateTPM is the source rate the request names; the answer's
	// evaluated_rate_tpm must equal it. Zero means the daemon chooses
	// (observed or forecast rate) and any positive rate is accepted.
	RateTPM float64
	// Parallelism is the proposed packing plan of a predict.
	Parallelism map[string]int
	// Horizon is the number of forecast points a traffic answer holds.
	Horizon int
}

// workload is one named traffic mix. Rates and limits are constants of
// the benchmark: they are never tuned at run time, so a slower system
// shows as a lower within_limit_share, not as a lighter load.
type workload struct {
	Name string
	Why  string
	// RateRPS is the paced phase's open-loop arrival rate.
	RateRPS float64
	// LimitMS is the latency limit a paced request must meet.
	LimitMS float64
	// draw generates one operation.
	draw func(rng *rand.Rand) request
}

var servingWorkloads = []workload{
	{
		Name:    "predict-fleet",
		Why:     "sync performance/suggest with seeded proposals: the calibration-cache-hit hot path (api, sched, core predict, audit, usage)",
		RateRPS: 1000,
		LimitMS: 10,
		draw:    drawPredictFleet,
	},
	{
		Name:    "dashboard-read",
		Why:     "calctl-dash reads over a preloaded 1 h history beside the live scraper: tsdb downsample, telemetry, large JSON; model tier idle",
		RateRPS: 400,
		LimitMS: 25,
		draw:    drawDashboardRead,
	},
	{
		Name:    "recalibrate-forecast",
		Why:     "forced calibrate, traffic forecast, rank and async jobs: calcache-miss path, sched as a real queue, core calibrate, forecast, graph",
		RateRPS: 20,
		LimitMS: 250,
		draw:    drawRecalibrateForecast,
	},
}

const figuresWorkload = "figures-batch"

const figuresWhy = "figures -parallel 1 then default parallelism: the offline paper reproduction (heron, experiments, core), checked byte-for-byte against results/"

func workloadByName(name string) (workload, bool) {
	for _, w := range servingWorkloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tenants are Zipf-weighted: tenant k is drawn with weight 1/(k+1).
var tenants = []string{"tenant-0", "tenant-1", "tenant-2", "tenant-3", "tenant-4", "tenant-5", "tenant-6", "tenant-7"}

func drawTenant(rng *rand.Rand) string {
	var total float64
	for k := range tenants {
		total += 1 / float64(k+1)
	}
	u := rng.Float64() * total
	for k, t := range tenants {
		u -= 1 / float64(k+1)
		if u < 0 {
			return t
		}
	}
	return tenants[len(tenants)-1]
}

func topologyPath(action string) string {
	return "/api/v1/model/topology/" + topologyName + "/" + action + "?sync=true"
}

// drawRate is log-uniform in 5e6..2e8 tuples/minute, rounded to a
// whole number so the JSON text is short and exact.
func drawRate(rng *rand.Rand) float64 {
	lo, hi := math.Log(5e6), math.Log(2e8)
	return math.Round(math.Exp(lo + rng.Float64()*(hi-lo)))
}

func formatRate(r float64) string { return strconv.FormatFloat(r, 'f', -1, 64) }

// drawPredictFleet: performance 80 / suggest 20; 80 % carry a seeded
// proposal, 20 % send {} (the deployed configuration at the observed
// rate).
func drawPredictFleet(rng *rand.Rand) request {
	r := request{Method: "POST", Tenant: drawTenant(rng), Body: "{}"}
	isPlan := rng.Float64() >= 0.8
	proposal := rng.Float64() < 0.8
	if isPlan {
		r.Op, r.Path = opPlan, topologyPath("suggest")
		if proposal {
			r.RateTPM = drawRate(rng)
			r.Body = `{"source_rate_tpm":` + formatRate(r.RateTPM) + `}`
		}
		return r
	}
	r.Op, r.Path = opPredict, topologyPath("performance")
	if proposal {
		s, c := 1+rng.Intn(12), 1+rng.Intn(12)
		r.RateTPM = drawRate(rng)
		r.Parallelism = map[string]int{"splitter": s, "counter": c}
		r.Body = fmt.Sprintf(`{"parallelism":{"counter":%d,"splitter":%d},"source_rate_tpm":%s}`, c, s, formatRate(r.RateTPM))
	}
	return r
}

// dashPanel is one `calctl dash` sparkline row: the metric it reads
// and how it aggregates within a step and across series.
type dashPanel struct{ metric, agg, merge string }

// dashPanels mirrors cmd/calctl's dashPanels.
var dashPanels = []dashPanel{
	{"caladrius_http_requests_total:rate", "mean", "sum"},
	{"caladrius_http_request_duration_seconds:p95", "max", "max"},
	{"caladrius_http_in_flight_requests", "max", "sum"},
	{"caladrius_go_goroutines", "max", "max"},
	{"caladrius_sim_backpressure_active_instances", "mean", "sum"},
	{"caladrius_model_mape", "last", "max"},
	{"caladrius_profile_top_regression_delta", "last", "max"},
	{"caladrius_sched_queue_depth", "max", "max"},
	{"caladrius_sched_sheds_total:rate", "mean", "sum"},
}

func queryRangePath(p dashPanel, window, step string) string {
	v := url.Values{
		"metric": {p.metric},
		"window": {window},
		"step":   {step},
		"agg":    {p.agg},
		"merge":  {p.merge},
	}
	return "/api/v1/query_range?" + v.Encode()
}

// drawDashboardRead: per mille, 600 dash panels (5 m window, 10 s
// step), 67/67/66 alerts/sched/usage — together one `calctl dash`
// refresh in its 9:1:1:1 proportion — plus 50 audit lists, 50 /metrics
// scrapes and 100 zoomed-out panels (1 h window, 60 s step).
func drawDashboardRead(rng *rand.Rand) request {
	r := request{Method: "GET", Tenant: drawTenant(rng)}
	switch u := rng.Intn(1000); {
	case u < 600:
		r.Op, r.Path = opQueryRange5m, queryRangePath(dashPanels[rng.Intn(len(dashPanels))], "5m", "10s")
	case u < 667:
		r.Op, r.Path = opAlerts, "/api/v1/alerts"
	case u < 734:
		r.Op, r.Path = opSched, "/api/v1/sched"
	case u < 800:
		r.Op, r.Path = opUsage, "/api/v1/usage"
	case u < 850:
		r.Op, r.Path = opAudit, "/api/v1/audit?limit=50"
	case u < 900:
		r.Op, r.Path = opMetrics, "/metrics"
	default:
		r.Op, r.Path = opQueryRange1h, queryRangePath(dashPanels[rng.Intn(len(dashPanels))], "1h", "60s")
	}
	return r
}

// drawRecalibrateForecast: forced calibrate 20 / traffic 30 / rank 10 /
// performance with use_forecast 20 / async traffic job 20.
func drawRecalibrateForecast(rng *rand.Rand) request {
	r := request{Method: "POST", Tenant: drawTenant(rng)}
	sourceMinutes := []int{360, 1440}[rng.Intn(2)]
	horizon := []int{30, 60}[rng.Intn(2)]
	trafficBody := fmt.Sprintf(`{"source_minutes":%d,"horizon_minutes":%d}`, sourceMinutes, horizon)
	switch u := rng.Intn(100); {
	case u < 20:
		r.Op, r.Path, r.Body = opCalibrate, topologyPath("calibrate"), "{}"
	case u < 50:
		r.Op, r.Path, r.Body, r.Horizon = opTraffic, "/api/v1/model/traffic/"+topologyName+"?sync=true", trafficBody, horizon
	case u < 60:
		r.Op, r.Path = opRank, "/api/v1/model/traffic/"+topologyName+"/rank?sync=true"
		r.Body = fmt.Sprintf(`{"source_minutes":%d}`, sourceMinutes)
	case u < 80:
		r.Op, r.Path = opForecastPredict, topologyPath("performance")
		r.Body = fmt.Sprintf(`{"use_forecast":true,"source_minutes":%d,"horizon_minutes":%d}`, sourceMinutes, horizon)
	default:
		r.Op, r.Path, r.Body, r.Horizon = opTrafficJob, "/api/v1/model/traffic/"+topologyName, trafficBody, horizon
	}
	return r
}

// Each phase draws from its own stream, so changing the length of one
// phase does not change the requests of another.
const (
	streamPrefill = iota + 1
	streamPaced
	streamClosed
	streamHistory
	streamReplay
)

func phaseRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + stream))
}

// pacedSchedule draws Poisson arrivals at the workload's rate for d.
func pacedSchedule(w workload, seed int64, d time.Duration) []request {
	rng := phaseRNG(seed, streamPaced)
	var reqs []request
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / w.RateRPS * float64(time.Second))
		if t >= d {
			return reqs
		}
		r := w.draw(rng)
		r.Due = t
		reqs = append(reqs, r)
	}
}

// closedRing draws n requests that closed-loop clients consume in
// order, wrapping around.
func closedRing(w workload, seed int64, stream int64, n int) []request {
	rng := phaseRNG(seed, stream)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = w.draw(rng)
	}
	return reqs
}

// prefillCount predicts fill the daemon's 4,096-record audit ring and
// its usage table before anything is timed.
const prefillCount = 4200

func prefillSchedule(seed int64) []request {
	return closedRing(servingWorkloads[0], seed, streamPrefill, prefillCount)
}

// encodeSchedule renders a schedule as text, one line per request.
func encodeSchedule(reqs []request) []byte {
	var b strings.Builder
	for _, r := range reqs {
		fmt.Fprintf(&b, "%d %s %s %s %s %s\n", int64(r.Due), r.Op, r.Method, r.Path, r.Tenant, r.Body)
	}
	return []byte(b.String())
}
