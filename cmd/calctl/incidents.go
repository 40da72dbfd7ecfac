package main

import (
	"flag"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"caladrius/internal/api"
)

// The incidents command browses the daemon's incident flight-recorder
// bundles:
//
//	calctl incidents                 list captured bundles
//	calctl incidents show <id>       render one bundle's manifest
//	calctl incidents capture         trigger a manual capture now

func incidentsCmd(c *client, args []string) error {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "show":
			if len(args) != 2 {
				return fmt.Errorf("usage: calctl incidents show <id>")
			}
			return incidentShow(c, args[1])
		case "capture":
			return c.postJSON("/api/v1/incidents/capture", map[string]any{})
		case "list":
			args = args[1:]
		default:
			return fmt.Errorf("usage: calctl incidents [list|show <id>|capture]")
		}
	}
	fs := flag.NewFlagSet("incidents", flag.ContinueOnError)
	raw := fs.Bool("raw", false, "dump the JSON listing instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *raw {
		return c.getJSON("/api/v1/incidents")
	}
	var list api.IncidentListResponse
	found, err := c.request(http.MethodGet, "/api/v1/incidents", nil, &list)
	if err != nil {
		return err
	}
	if !found {
		fmt.Println("incident recorder disabled (start the daemon with -incident-dir)")
		return nil
	}
	if list.Count == 0 {
		fmt.Println("no incidents captured")
		return nil
	}
	fmt.Printf("%-28s %-8s %-24s %-9s %s\n", "id", "trigger", "rule", "artifacts", "captured_at")
	for _, m := range list.Incidents {
		rule := m.Rule
		if rule == "" {
			rule = "-"
		}
		fmt.Printf("%-28s %-8s %-24s %-9d %s\n",
			m.ID, m.Trigger, rule, len(m.Artifacts), m.CapturedAt.Format(time.RFC3339))
	}
	return nil
}

func incidentShow(c *client, id string) error {
	var m api.IncidentResponse
	found, err := c.request(http.MethodGet, "/api/v1/incidents/"+id, nil, &m)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("no incident %q (recorder disabled, bundle pruned, or bad id)", id)
	}
	fmt.Printf("incident %s  (v%d, %s)\n", m.ID, m.Version, m.CapturedAt.Format(time.RFC3339))
	fmt.Printf("  trigger: %s\n", m.Trigger)
	if m.Rule != "" {
		fmt.Printf("  rule:    %s\n", m.Rule)
	}
	if m.Description != "" {
		fmt.Printf("  desc:    %s\n", m.Description)
	}
	if a := m.Alert; a != nil {
		val := "-"
		if a.Value != nil {
			val = fmt.Sprintf("%.4g", *a.Value)
		}
		fmt.Printf("  alert:   %s %s %g over %s\n", val, a.Op, a.Threshold, a.Window)
	}
	if mw := m.Metrics; mw != nil {
		fmt.Printf("  metrics: %s  %s → %s  (%d series, %d points)\n",
			mw.Metric, mw.Start.Format(time.RFC3339), mw.End.Format(time.RFC3339), mw.Series, mw.Points)
	}
	fmt.Printf("  logs:    %d records\n", m.LogRecords)
	fmt.Printf("  spans:   %d traces\n", m.SpanTraces)
	if len(m.JoinedTraceIDs) > 0 {
		fmt.Printf("  joined:  %s\n", strings.Join(m.JoinedTraceIDs, " "))
	}
	fmt.Println("  artifacts:")
	for _, a := range m.Artifacts {
		url := m.ArtifactURLs[a.Name]
		fmt.Printf("    %-16s %8d bytes  %s\n", a.Name, a.Bytes, url)
	}
	if len(m.Notes) > 0 {
		fmt.Println("  notes:")
		sorted := append([]string(nil), m.Notes...)
		sort.Strings(sorted)
		for _, n := range sorted {
			fmt.Printf("    %s\n", n)
		}
	}
	return nil
}
