// Preemptive scaling: the paper's headline use case. A topology runs
// under strongly seasonal traffic; Caladrius forecasts the next day's
// peak with its Prophet-substitute, detects that the peak would
// saturate the current configuration, and finds — without any
// deployment — a parallelism change that absorbs it.
//
// This example exercises the full service stack over HTTP: the Heron
// simulator generates three days of seasonal metric history, the
// topology is registered with the tracker, and the Caladrius REST API
// answers a traffic-forecast request and two dry-run performance
// requests (current plan and proposed plan) with use_forecast=true.
//
// Run with: go run ./examples/preemptive_scaling
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"caladrius/internal/api"
	"caladrius/internal/core"
	"caladrius/internal/daemon"
	"caladrius/internal/heron"
	"caladrius/internal/metrics"
	"caladrius/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Simulate three days of seasonal production traffic. ---------
	// Daily peaks (22.4 M tuples/min) slightly exceed the splitter's
	// p=2 capacity (21.6 M), so the topology already brushes
	// saturation at peak — which is also what lets Caladrius calibrate
	// the saturation point from history alone.
	spec := workload.TrafficSpec{Base: 16e6, DailyAmplitude: 0.4}
	fmt.Println("== simulating 3 days of seasonal traffic on word-count (splitter=2, counter=3)")
	// The seasonal schedule is anchored at the simulator's start.
	history, err := metrics.DeployWordCount(heron.WordCountOptions{
		SplitterP: 2, CounterP: 3,
		Schedule: workload.SeasonalRate(spec, heron.DefaultStart),
		Tick:     time.Second,
	}, 0, 3*24*60)
	if err != nil {
		return err
	}

	// --- Stand up the Caladrius service over that history. -----------
	cfg := daemon.Default()
	cfg.Substrate = history.Substrate
	cfg.LogOutput = io.Discard
	cfg.CalibrationLookback = 3 * 24 * time.Hour
	cfg.CalibrationWarmup = 10
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	fmt.Println("== caladrius service listening")

	// --- 1. Forecast tomorrow's traffic. ------------------------------
	var forecastResp api.TrafficResponse
	if err := post(srv.URL+"/api/v1/model/traffic/word-count?sync=true", api.TrafficRequest{
		SourceMinutes:  3 * 24 * 60,
		HorizonMinutes: 24 * 60,
		Models:         []string{"prophet"},
	}, &forecastResp); err != nil {
		return err
	}
	var peak float64
	var peakAt time.Time
	for _, p := range forecastResp.Results[0].Predictions {
		if p.Upper > peak {
			peak, peakAt = p.Upper, p.T
		}
	}
	fmt.Printf("== 1. prophet forecasts tomorrow's peak: %.1f M tuples/min around %s\n",
		peak/1e6, peakAt.Format("15:04"))

	// --- 2. Dry-run the current plan at the forecast peak. ------------
	var current api.PerformanceResponse
	if err := post(srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", api.PerformanceRequest{
		UseForecast:    true,
		SourceMinutes:  3 * 24 * 60,
		HorizonMinutes: 24 * 60,
	}, &current); err != nil {
		return err
	}
	fmt.Printf("== 2. current plan at the peak: risk %s (saturates at %.1f M, bottleneck %s)\n",
		current.Prediction.Risk, current.Prediction.SaturationSource/1e6, current.Prediction.Bottleneck)
	if current.Prediction.Risk != core.RiskHigh {
		return fmt.Errorf("expected the seasonal peak to endanger the current plan")
	}

	// --- 3. Find the cheapest safe plan, still without deploying. -----
	for splitterP := 3; splitterP <= 6; splitterP++ {
		var proposed api.PerformanceResponse
		if err := post(srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", api.PerformanceRequest{
			Parallelism:    map[string]int{"splitter": splitterP},
			UseForecast:    true,
			SourceMinutes:  3 * 24 * 60,
			HorizonMinutes: 24 * 60,
		}, &proposed); err != nil {
			return err
		}
		fmt.Printf("== 3. proposal splitter=%d: risk %s, predicted CPU %.1f cores\n",
			splitterP, proposed.Prediction.Risk, proposed.Prediction.TotalCPU)
		if proposed.Prediction.Risk == core.RiskLow {
			fmt.Printf("done: scale splitter 2 → %d before %s to ride out the peak (no deployments spent).\n",
				splitterP, peakAt.Format("15:04"))
			return nil
		}
	}
	return fmt.Errorf("no safe plan found up to splitter=6")
}

func post(url string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("POST %s: %s (%v)", url, resp.Status, e)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
