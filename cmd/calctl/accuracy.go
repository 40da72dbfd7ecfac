package main

import (
	"flag"
	"fmt"
	"net/url"
	"strconv"
	"time"

	"caladrius/internal/api"
)

// The accuracy command summarises the service's prediction audit
// ledger: per-(topology, model) rolling error metrics followed by the
// most recent audit records.

func accuracyCmd(c *client, args []string) error {
	fs := flag.NewFlagSet("accuracy", flag.ContinueOnError)
	topo := fs.String("topology", "", "filter by topology")
	model := fs.String("model", "", "filter by model kind (predict|plan)")
	tenant := fs.String("tenant", "", "filter by tenant")
	limit := fs.Int("limit", 10, "audit records to list")
	raw := fs.Bool("raw", false, "dump the raw JSON payload instead of the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v := url.Values{"limit": {strconv.Itoa(*limit)}}
	if *topo != "" {
		v.Set("topology", *topo)
	}
	if *model != "" {
		v.Set("model", *model)
	}
	if *tenant != "" {
		v.Set("tenant", *tenant)
	}
	path := "/api/v1/audit?" + v.Encode()
	if *raw {
		return c.getJSON(path)
	}
	var resp api.AuditListResponse
	if err := c.getDecode(path, &resp); err != nil {
		return err
	}

	if len(resp.Stats) == 0 {
		fmt.Println("no resolved audit records yet")
	} else {
		fmt.Printf("%-14s %-8s %-9s %-8s %-9s %-9s %-9s %-9s %s\n",
			"topology", "model", "resolved", "audited", "mape", "signed", "precision", "recall", "calibrated")
		for _, s := range resp.Stats {
			cal := "-"
			if s.LastCalibrated != nil {
				cal = s.LastCalibrated.Format(time.RFC3339)
			}
			fmt.Printf("%-14s %-8s %-9d %-8d %-9s %-9s %-9.3f %-9.3f %s\n",
				s.Topology, s.Model, s.Resolved, s.Audited,
				fmtPct(s.MAPE), fmtPct(s.SignedError), s.Precision, s.Recall, cal)
		}
	}

	if len(resp.Records) == 0 {
		return nil
	}
	fmt.Printf("\n%-6s %-14s %-8s %-20s %-14s %-14s %-8s %-5s %s\n",
		"id", "topology", "model", "created", "pred_sink_tpm", "obs_sink_tpm", "ape", "risk", "state")
	for _, r := range resp.Records {
		obs, ape, risk := "-", "-", r.Predicted.Risk
		if r.Observed != nil {
			obs = fmt.Sprintf("%.4g", r.Observed.SinkTPM)
		}
		if r.Errors != nil {
			ape = fmt.Sprintf("%.2f%%", r.Errors.SinkAPE*100)
			risk += "/" + r.Errors.RiskOutcome
		}
		state := "pending"
		switch {
		case r.Resolved && r.Counterfactual:
			state = "counterfactual"
		case r.Resolved:
			state = "resolved"
		}
		fmt.Printf("%-6d %-14s %-8s %-20s %-14.4g %-14s %-8s %-5s %s\n",
			r.ID, r.Topology, r.Model, r.CreatedAt.Format("2006-01-02T15:04:05Z"),
			r.Predicted.SinkTPM, obs, ape, risk, state)
	}
	return nil
}

func fmtPct(v *float64) string {
	if v == nil {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", *v*100)
}
