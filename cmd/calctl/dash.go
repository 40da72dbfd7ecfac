package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strings"
	"time"

	"caladrius/internal/api"
	"caladrius/internal/telemetry"
)

// The dash command is a polling terminal dashboard over the service's
// self-monitoring endpoints: each refresh pulls recent history through
// /api/v1/query_range, renders one sparkline row per panel, and lists
// the SLO alert states from /api/v1/alerts.

// dashPanel is one sparkline row of the dashboard.
type dashPanel struct {
	title  string
	metric string
	agg    string // within-step aggregation
	merge  string // cross-series merge
	scale  float64
	unit   string
}

var dashPanels = []dashPanel{
	{title: "req rate", metric: "caladrius_http_requests_total:rate", agg: "mean", merge: "sum", scale: 1, unit: "req/s"},
	{title: "p95 latency", metric: "caladrius_http_request_duration_seconds:p95", agg: "max", merge: "max", scale: 1000, unit: "ms"},
	{title: "in flight", metric: "caladrius_http_in_flight_requests", agg: "max", merge: "sum", scale: 1, unit: ""},
	{title: "goroutines", metric: "caladrius_go_goroutines", agg: "max", merge: "max", scale: 1, unit: ""},
	{title: "backpressure", metric: "caladrius_sim_backpressure_active_instances", agg: "mean", merge: "sum", scale: 1, unit: "inst"},
	{title: "model MAPE", metric: "caladrius_model_mape", agg: "last", merge: "max", scale: 100, unit: "%"},
	{title: "prof Δhot", metric: "caladrius_profile_top_regression_delta", agg: "last", merge: "max", scale: 100, unit: "%"},
	{title: "sched queue", metric: "caladrius_sched_queue_depth", agg: "max", merge: "max", scale: 1, unit: ""},
	{title: "sheds", metric: "caladrius_sched_sheds_total:rate", agg: "mean", merge: "sum", scale: 60, unit: "sheds/min"},
}

func dashCmd(c *client, args []string) error {
	fs := flag.NewFlagSet("dash", flag.ContinueOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh period")
	window := fs.Duration("window", 5*time.Minute, "history window to render")
	step := fs.Duration("step", 10*time.Second, "downsampling step")
	iterations := fs.Int("iterations", 0, "refreshes before exiting; 0 = run until interrupted")
	noClear := fs.Bool("no-clear", false, "do not clear the screen between refreshes")
	width := fs.Int("width", 60, "sparkline width in cells")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *width < 1 {
		return fmt.Errorf("-width must be positive")
	}
	for i := 0; *iterations <= 0 || i < *iterations; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		if !*noClear {
			fmt.Print("\x1b[H\x1b[2J")
		}
		if err := renderDash(c, *window, *step, *width); err != nil {
			return err
		}
	}
	return nil
}

func renderDash(c *client, window, step time.Duration, width int) error {
	fmt.Printf("caladrius dash  %s  (window %s, step %s)\n\n", time.Now().Format(time.RFC3339), window, step)
	for _, p := range dashPanels {
		v := url.Values{
			"metric": {p.metric},
			"window": {window.String()},
			"step":   {step.String()},
			"agg":    {p.agg},
			"merge":  {p.merge},
		}
		var rr api.QueryRangeResponse
		if err := c.getDecode("/api/v1/query_range?"+v.Encode(), &rr); err != nil {
			return err
		}
		vals := make([]float64, len(rr.Points))
		for i, pt := range rr.Points {
			vals[i] = pt.V * p.scale
		}
		if len(vals) == 0 {
			fmt.Printf("%-14s %*s  (no data)\n", p.title, width, "")
			continue
		}
		fmt.Printf("%-14s %s  %.3g %s\n", p.title, sparkline(vals, width), vals[len(vals)-1], p.unit)
	}

	var ar api.AlertsResponse
	if err := c.getDecode("/api/v1/alerts", &ar); err != nil {
		return err
	}
	fmt.Println("\nalerts:")
	if len(ar.Alerts) == 0 {
		fmt.Println("  (no rules configured)")
	}
	for _, a := range ar.Alerts {
		val := "-"
		if a.Value != nil {
			val = fmt.Sprintf("%.4g", *a.Value)
		}
		line := fmt.Sprintf("  %-10s %-24s %s %s %g over %s",
			strings.ToUpper(string(a.State)), a.Rule, val, a.Op, a.Threshold, a.Window)
		if a.State == telemetry.StateFiring && a.Since != nil {
			line += "  since " + a.Since.Format(time.RFC3339)
		}
		fmt.Println(line)
	}

	var il api.IncidentListResponse
	found, err := c.request(http.MethodGet, "/api/v1/incidents", nil, &il)
	if err != nil {
		return err
	}
	if found {
		fmt.Println("\nincidents:")
		if il.Count == 0 {
			fmt.Println("  (none captured)")
		} else {
			// Newest first; keep the dashboard to the three most recent.
			shown := il.Incidents
			if len(shown) > 3 {
				shown = shown[:3]
			}
			for _, m := range shown {
				rule := m.Rule
				if rule == "" {
					rule = m.Trigger
				}
				fmt.Printf("  %-28s %-24s %s\n", m.ID, rule, m.CapturedAt.Format(time.RFC3339))
			}
			if il.Count > len(shown) {
				fmt.Printf("  (%d more — calctl incidents)\n", il.Count-len(shown))
			}
		}
	}

	// Model-run scheduler snapshot.
	var ds api.SchedResponse
	if err := c.getDecode("/api/v1/sched", &ds); err != nil {
		return err
	}
	sc, cc := ds.Scheduler, ds.CalCache
	fmt.Println("\nscheduler:")
	fmt.Printf("  queue %d/%d  busy %d/%d  tenants %d  runs %d  coalesced %d  sheds %d  mean run %.1fms\n",
		sc.Queued, sc.QueueLimit, sc.Busy, sc.Workers, sc.ActiveTenants,
		sc.Runs, sc.Coalesced, sc.Sheds, sc.MeanRunMs)
	fmt.Printf("  calcache %d entries  hit rate %.0f%%  (%d hits, %d misses, %d stale, %d invalidations)\n",
		cc.Entries, cc.HitRate*100, cc.Hits, cc.Misses, cc.Stale, cc.Invalidations)

	// Top principals by request volume over the server's usage window.
	var ur api.UsageResponse
	if err := c.getDecode("/api/v1/usage?by=requests&n=3", &ur); err != nil {
		return err
	}
	fmt.Println("\ntop tenants (by requests):")
	if len(ur.Top) == 0 {
		fmt.Println("  (no usage recorded)")
	}
	for _, p := range ur.Top {
		tenant := p.Tenant
		if p.Rollup {
			tenant = "(other)"
		}
		fmt.Printf("  %-16s %-14s %6d reqs  %8.1f cpu_ms  %s\n",
			tenant, p.Topology, p.Window.Requests,
			float64(p.Window.CPUNanos)/1e6, fmtBytes(p.Window.AllocBytes))
	}
	return nil
}

// sparkline fits vals into width cells of block characters, scaled
// between the series min and max.
func sparkline(vals []float64, width int) string {
	const ramp = "▁▂▃▄▅▆▇█"
	cells := []rune(ramp)
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(cells)-1))
		}
		b.WriteRune(cells[idx])
	}
	for i := len(vals); i < width; i++ {
		b.WriteByte(' ')
	}
	return b.String()
}
