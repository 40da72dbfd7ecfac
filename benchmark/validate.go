package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Every answer is parsed and checked against what its operation must
// return. A 200 with an empty body is a failure: writeJSON drops the
// encode error when a prediction holds +Inf (an unsaturated
// calibration), and a harness that counts status codes reads that as
// success.

// Wire forms, decoded from the JSON the daemon sends rather than
// imported from internal/api, so that validation checks the contract a
// client sees.
type componentWire struct {
	Component   string  `json:"component"`
	Parallelism int     `json:"parallelism"`
	SourceRate  float64 `json:"source_rate_tpm"`
	InputRate   float64 `json:"input_rate_tpm"`
	OutputRate  float64 `json:"output_rate_tpm"`
	Saturated   bool    `json:"saturated"`
	CPULoad     float64 `json:"cpu_load_cores"`
}

type pathWire struct {
	Path             []string        `json:"path"`
	OutputRate       float64         `json:"output_rate_tpm"`
	SinkThroughput   float64         `json:"sink_throughput_tpm"`
	SaturationSource float64         `json:"saturation_source_tpm"`
	Bottleneck       string          `json:"bottleneck"`
	Risk             string          `json:"backpressure_risk"`
	Components       []componentWire `json:"components"`
}

type predictionWire struct {
	SourceRate       float64    `json:"source_rate_tpm"`
	Paths            []pathWire `json:"paths"`
	OutputRate       float64    `json:"output_rate_tpm"`
	SinkThroughput   float64    `json:"sink_throughput_tpm"`
	SaturationSource float64    `json:"saturation_source_tpm"`
	Bottleneck       string     `json:"bottleneck"`
	Risk             string     `json:"backpressure_risk"`
	TotalCPU         float64    `json:"total_cpu_cores"`
}

type predictWire struct {
	Topology         string         `json:"topology"`
	Prediction       predictionWire `json:"prediction"`
	EvaluatedRateTPM float64        `json:"evaluated_rate_tpm"`
	Parallelism      map[string]int `json:"parallelism"` // suggest only
}

type trafficWire struct {
	Topology string `json:"topology"`
	Results  []struct {
		Model       string            `json:"model"`
		Predictions []json.RawMessage `json:"predictions"`
	} `json:"results"`
}

type schedWire struct {
	Scheduler struct {
		Workers   int     `json:"workers"`
		Runs      uint64  `json:"runs"`
		Coalesced uint64  `json:"coalesced"`
		Sheds     uint64  `json:"sheds"`
		MeanRunMs float64 `json:"mean_run_ms"`
	} `json:"scheduler"`
	CalCache struct {
		Entries int    `json:"entries"`
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
	} `json:"calcache"`
}

// decode parses a JSON body, rejecting an empty one by name.
func decode(body []byte, v any) error {
	if len(bytes.TrimSpace(body)) == 0 {
		return errors.New("empty body")
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	return nil
}

func checkPrediction(r *request, p predictWire) error {
	if len(p.Prediction.Paths) == 0 {
		return errors.New("prediction has no paths")
	}
	for i, path := range p.Prediction.Paths {
		if path.Bottleneck == "" {
			return fmt.Errorf("path %d has no bottleneck", i)
		}
	}
	if r.RateTPM != 0 && p.EvaluatedRateTPM != r.RateTPM {
		return fmt.Errorf("evaluated_rate_tpm %v, want the requested %v", p.EvaluatedRateTPM, r.RateTPM)
	}
	if !(p.EvaluatedRateTPM > 0) {
		return fmt.Errorf("evaluated_rate_tpm %v is not positive", p.EvaluatedRateTPM)
	}
	return nil
}

func checkTraffic(r *request, body []byte) error {
	var t trafficWire
	if err := decode(body, &t); err != nil {
		return err
	}
	if len(t.Results) == 0 {
		return errors.New("traffic answer has no model results")
	}
	for _, res := range t.Results {
		if len(res.Predictions) != r.Horizon {
			return fmt.Errorf("model %s returned %d predictions, want the horizon %d", res.Model, len(res.Predictions), r.Horizon)
		}
	}
	return nil
}

// validate checks one answer against its operation's contract.
func validate(s *sample) error {
	if s.err != nil {
		return s.err
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", s.status, s.body)
	}
	r := s.req
	switch r.Op {
	case opPredict, opForecastPredict:
		var p predictWire
		if err := decode(s.body, &p); err != nil {
			return err
		}
		return checkPrediction(r, p)
	case opPlan:
		var p predictWire
		if err := decode(s.body, &p); err != nil {
			return err
		}
		if len(p.Parallelism) == 0 {
			return errors.New("plan has no parallelism")
		}
		for comp, par := range p.Parallelism {
			if par < 1 {
				return fmt.Errorf("plan gives %s parallelism %d", comp, par)
			}
		}
		return checkPrediction(r, p)
	case opCalibrate:
		var c struct {
			Calibrated bool `json:"calibrated"`
		}
		if err := decode(s.body, &c); err != nil {
			return err
		}
		if !c.Calibrated {
			return errors.New("calibrated is not true")
		}
	case opTraffic:
		return checkTraffic(r, s.body)
	case opTrafficJob:
		var job struct {
			Status string          `json:"status"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := decode(s.body, &job); err != nil {
			return err
		}
		if job.Status != "done" {
			return fmt.Errorf("job ended %s: %s", job.Status, job.Error)
		}
		return checkTraffic(r, job.Result)
	case opRank:
		var rk struct {
			Ranking []struct {
				Model string `json:"model"`
				Error string `json:"error"`
			} `json:"ranking"`
		}
		if err := decode(s.body, &rk); err != nil {
			return err
		}
		if len(rk.Ranking) == 0 {
			return errors.New("empty ranking")
		}
		for _, e := range rk.Ranking {
			if e.Model == "" || e.Error != "" {
				return fmt.Errorf("ranking entry %q failed: %s", e.Model, e.Error)
			}
		}
	case opQueryRange5m, opQueryRange1h:
		// Every dash panel is preloaded, so an empty answer is wrong.
		var q struct {
			Points []struct {
				T time.Time `json:"t"`
			} `json:"points"`
		}
		if err := decode(s.body, &q); err != nil {
			return err
		}
		if len(q.Points) == 0 {
			return errors.New("no points for a preloaded panel")
		}
		for i := 1; i < len(q.Points); i++ {
			if !q.Points[i].T.After(q.Points[i-1].T) {
				return fmt.Errorf("points %d and %d are not in time order", i-1, i)
			}
		}
	case opAudit:
		var a struct {
			Records []struct {
				ID int64 `json:"id"`
			} `json:"records"`
		}
		if err := decode(s.body, &a); err != nil {
			return err
		}
		if n := len(a.Records); n == 0 || n > 50 {
			return fmt.Errorf("audit list holds %d records, want 1..50", n)
		}
		for _, rec := range a.Records {
			if rec.ID <= 0 {
				return fmt.Errorf("audit record id %d", rec.ID)
			}
		}
	case opUsage:
		var u struct {
			Principals int               `json:"principals"`
			Top        []json.RawMessage `json:"top"`
		}
		if err := decode(s.body, &u); err != nil {
			return err
		}
		if u.Principals == 0 || len(u.Top) == 0 {
			return errors.New("usage lists no principals")
		}
	case opAlerts:
		var a struct {
			Alerts []struct {
				Rule  string `json:"rule"`
				State string `json:"state"`
			} `json:"alerts"`
		}
		if err := decode(s.body, &a); err != nil {
			return err
		}
		if len(a.Alerts) == 0 {
			return errors.New("no alert rules")
		}
		for _, al := range a.Alerts {
			if al.Rule == "" || al.State == "" {
				return errors.New("alert without rule or state")
			}
		}
	case opSched:
		var sw schedWire
		if err := decode(s.body, &sw); err != nil {
			return err
		}
		if sw.Scheduler.Workers < 1 {
			return errors.New("scheduler reports no workers")
		}
	case opMetrics:
		if !bytes.Contains(s.body, []byte("\ncaladrius_http_requests_total{")) || !bytes.HasSuffix(s.body, []byte("\n")) {
			return errors.New("exposition lacks caladrius_http_requests_total or is cut short")
		}
	default:
		return fmt.Errorf("no validator for op %q", r.Op)
	}
	return nil
}
