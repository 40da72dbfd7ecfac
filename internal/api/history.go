package api

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"caladrius/internal/telemetry"
	"caladrius/internal/tsdb"
)

// Self-monitoring endpoints. The scraper (telemetry.Scraper) appends
// the service's own registry into an embedded tsdb.DB; these handlers
// expose that history (GET /api/v1/query_range) and the SLO
// evaluator's alert states (GET /api/v1/alerts).

// maxRangeBuckets bounds how many downsample buckets one query_range
// request may ask for.
const maxRangeBuckets = 100_000

// reservedRangeParams are query_range parameters that are not label
// matchers; every other query parameter becomes a label equality
// selector (e.g. ?route=/api/v1/health or ?le=%2BInf).
var reservedRangeParams = map[string]bool{
	"metric": true, "start": true, "end": true, "window": true,
	"step": true, "agg": true, "merge": true, "sync": true,
}

// RangePoint is one downsampled observation.
type RangePoint struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// QueryRangeResponse is the payload of GET /api/v1/query_range. Points
// is empty (never null) when nothing matched — a dashboard polling an
// idle series should not see errors.
type QueryRangeResponse struct {
	Metric   string       `json:"metric"`
	Selector tsdb.Labels  `json:"selector,omitempty"`
	Start    time.Time    `json:"start"`
	End      time.Time    `json:"end"`
	Step     string       `json:"step"`
	Agg      string       `json:"agg"`
	Merge    string       `json:"merge"`
	Points   []RangePoint `json:"points"`
}

// AlertsResponse is the payload of GET /api/v1/alerts.
type AlertsResponse struct {
	Alerts []telemetry.Alert `json:"alerts"`
}

func validAgg(a tsdb.Agg) bool {
	switch a {
	case tsdb.AggSum, tsdb.AggMean, tsdb.AggMin, tsdb.AggMax,
		tsdb.AggCount, tsdb.AggMedian, tsdb.AggLast:
		return true
	}
	return false
}

// parseRangeTime accepts RFC3339(Nano) or unix seconds (fractions ok).
func parseRangeTime(s string) (time.Time, error) {
	if ts, err := time.Parse(time.RFC3339Nano, s); err == nil {
		return ts, nil
	}
	if secs, err := strconv.ParseFloat(s, 64); err == nil && !math.IsNaN(secs) && !math.IsInf(secs, 0) {
		sec, frac := math.Modf(secs)
		return time.Unix(int64(sec), int64(frac*1e9)).UTC(), nil
	}
	return time.Time{}, fmt.Errorf("bad time %q (want RFC3339 or unix seconds)", s)
}

// rangeQuery is the validated form of a query_range request.
type rangeQuery struct {
	Metric     string
	Start, End time.Time
	Step       time.Duration
	Agg, Merge tsdb.Agg
	Sel        tsdb.Labels
}

// parseQueryRange validates query_range parameters. `now` supplies the
// default end so the function stays pure (and fuzzable). Every error it
// returns is a client error — the handler maps them all to 400.
func parseQueryRange(q url.Values, now time.Time) (rangeQuery, error) {
	var rq rangeQuery
	rq.Metric = q.Get("metric")
	if rq.Metric == "" {
		return rq, errors.New("missing metric parameter")
	}
	rq.End = now
	if v := q.Get("end"); v != "" {
		var err error
		if rq.End, err = parseRangeTime(v); err != nil {
			return rq, errors.New("end: " + err.Error())
		}
	}
	window := 15 * time.Minute
	if v := q.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return rq, fmt.Errorf("bad window %q", v)
		}
		window = d
	}
	rq.Start = rq.End.Add(-window)
	if v := q.Get("start"); v != "" {
		var err error
		if rq.Start, err = parseRangeTime(v); err != nil {
			return rq, errors.New("start: " + err.Error())
		}
	}
	if rq.Start.After(rq.End) {
		return rq, errors.New("start must not be after end")
	}
	rq.Step = 30 * time.Second
	if v := q.Get("step"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return rq, fmt.Errorf("step must be a positive duration, got %q", v)
		}
		rq.Step = d
	}
	// Bound the bucket count so a tiny step over a huge range cannot
	// materialise millions of points.
	if buckets := rq.End.Sub(rq.Start) / rq.Step; buckets > maxRangeBuckets {
		return rq, fmt.Errorf("step %s over range %s yields %d buckets (max %d)", rq.Step, rq.End.Sub(rq.Start), buckets, maxRangeBuckets)
	}
	rq.Agg, rq.Merge = tsdb.AggMean, tsdb.AggSum
	if v := q.Get("agg"); v != "" {
		rq.Agg = tsdb.Agg(v)
	}
	if v := q.Get("merge"); v != "" {
		rq.Merge = tsdb.Agg(v)
	}
	if !validAgg(rq.Agg) || !validAgg(rq.Merge) {
		return rq, fmt.Errorf("unknown aggregation %q/%q", rq.Agg, rq.Merge)
	}
	rq.Sel = tsdb.Labels{}
	for k, vs := range q {
		if !reservedRangeParams[k] && len(vs) > 0 {
			rq.Sel[k] = vs[0]
		}
	}
	return rq, nil
}

func (s *Service) handleQueryRange(w http.ResponseWriter, r *http.Request) {
	rq, err := parseQueryRange(r.URL.Query(), time.Now().UTC())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp := QueryRangeResponse{
		Metric:   rq.Metric,
		Selector: rq.Sel,
		Start:    rq.Start,
		End:      rq.End,
		Step:     rq.Step.String(),
		Agg:      string(rq.Agg),
		Merge:    string(rq.Merge),
		Points:   []RangePoint{},
	}
	series, err := s.history.Downsample(rq.Metric, rq.Sel, rq.Start, rq.End, rq.Step, rq.Agg, rq.Merge)
	if err != nil && !errors.Is(err, tsdb.ErrNoData) {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	for _, p := range series.Points {
		// Non-finite values would make json.Encode fail silently.
		if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
			continue
		}
		resp.Points = append(resp.Points, RangePoint{T: p.T, V: p.V})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, AlertsResponse{Alerts: s.slo.Evaluate()})
}
