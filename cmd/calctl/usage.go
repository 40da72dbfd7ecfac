package main

import (
	"flag"
	"fmt"
	"net/url"
	"strconv"
	"time"

	"caladrius/internal/api"
)

// The usage command ranks the (tenant, topology) principals the
// service attributed its traffic and model runs to, over the server's
// trailing usage window.

func usageCmd(c *client, args []string) error {
	fs := flag.NewFlagSet("usage", flag.ContinueOnError)
	by := fs.String("by", "", "ranking key: requests|errors|wall|cpu|allocs|runs; empty = server default")
	n := fs.Int("n", 0, "principals to list; 0 = server default")
	raw := fs.Bool("raw", false, "dump the raw JSON payload instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v := url.Values{}
	if *by != "" {
		v.Set("by", *by)
	}
	if *n != 0 {
		v.Set("n", strconv.Itoa(*n))
	}
	path := "/api/v1/usage"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	if *raw {
		return c.getJSON(path)
	}
	var resp api.UsageResponse
	if err := c.getDecode(path, &resp); err != nil {
		return err
	}
	fmt.Printf("usage over the last %s (ranked by %s; %d/%d principals live, %d evicted into other)\n",
		time.Duration(resp.WindowSeconds*float64(time.Second)), resp.By,
		resp.Principals, resp.Capacity, resp.Evictions)
	if len(resp.Top) == 0 {
		fmt.Println("no usage recorded yet")
		return nil
	}
	fmt.Printf("%-16s %-14s %-8s %-7s %-9s %-6s %-9s %s\n",
		"tenant", "topology", "reqs", "errs", "mean_ms", "runs", "cpu_ms", "allocs")
	for _, p := range resp.Top {
		meanMs := "-"
		if p.Window.Requests > 0 {
			meanMs = fmt.Sprintf("%.3f", float64(p.Window.LatencyNanos)/float64(p.Window.Requests)/1e6)
		}
		tenant := p.Tenant
		if p.Rollup {
			tenant = "(other)"
		}
		fmt.Printf("%-16s %-14s %-8d %-7d %-9s %-6d %-9.3f %s\n",
			tenant, p.Topology, p.Window.Requests, p.Window.Errors, meanMs,
			p.Window.Runs, float64(p.Window.CPUNanos)/1e6,
			fmtBytes(p.Window.AllocBytes))
	}

	// Admission-control context for the table above: how much of the
	// tenants' demand the scheduler coalesced or shed.
	var ds api.SchedResponse
	if err := c.getDecode("/api/v1/sched", &ds); err != nil {
		return err
	}
	s := ds.Scheduler
	fmt.Printf("\nscheduler: %d runs, %d coalesced, %d shed (429); queue %d/%d, %d active tenants, calcache hit rate %.0f%%\n",
		s.Runs, s.Coalesced, s.Sheds, s.Queued, s.QueueLimit,
		s.ActiveTenants, ds.CalCache.HitRate*100)
	return nil
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return strconv.FormatUint(b, 10) + "B"
	}
}
