package api

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/usage"
)

// The usage surface: GET /api/v1/usage ranks the principals the
// accountant tracked over its trailing window.

// usageSortKeys maps the ?by= parameter onto window fields.
var usageSortKeys = map[string]func(usage.Totals) uint64{
	"requests": func(t usage.Totals) uint64 { return t.Requests },
	"errors":   func(t usage.Totals) uint64 { return t.Errors },
	"wall":     func(t usage.Totals) uint64 { return t.WallNanos },
	"cpu":      func(t usage.Totals) uint64 { return t.CPUNanos },
	"allocs":   func(t usage.Totals) uint64 { return t.AllocBytes },
	"ticks":    func(t usage.Totals) uint64 { return t.SimTicks },
	"runs":     func(t usage.Totals) uint64 { return t.Runs },
}

// UsageResponse is the payload of GET /api/v1/usage.
type UsageResponse struct {
	// WindowSeconds is the trailing ranking window the Top list is
	// ordered over (Totals in each entry remain cumulative).
	WindowSeconds float64 `json:"window_seconds"`
	// Capacity is the live-principal cap K; Principals is the current
	// live count; Evictions counts rollups into "other" since boot.
	Capacity   int    `json:"capacity"`
	Principals int    `json:"principals"`
	Evictions  uint64 `json:"evictions"`
	// By is the ranking key applied; Top is the ranked head of the
	// snapshot plus the rollup bucket whenever it exists.
	By  string                 `json:"by"`
	Top []usage.PrincipalUsage `json:"top"`
}

func (s *Service) handleUsage(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	for k := range q {
		if k != "by" && k != "n" {
			httpError(w, http.StatusBadRequest, "unknown query parameter "+strconv.Quote(k)+" (want by, n)")
			return
		}
	}
	by := q.Get("by")
	if by == "" {
		by = "requests"
	}
	key, ok := usageSortKeys[by]
	if !ok {
		httpError(w, http.StatusBadRequest, "by: want one of requests, errors, wall, cpu, allocs, ticks, runs")
		return
	}
	n, ok := positiveParam(w, q, "n", 10)
	if !ok {
		return
	}

	snap := s.usage.Snapshot()
	// Rank live principals by the window key; the rollup bucket is
	// appended after the cut so "everyone else" is always visible.
	var rollup *usage.PrincipalUsage
	live := make([]usage.PrincipalUsage, 0, len(snap))
	for i := range snap {
		if snap[i].Rollup {
			r := snap[i]
			rollup = &r
			continue
		}
		live = append(live, snap[i])
	}
	sort.Slice(live, func(i, j int) bool {
		ki, kj := key(live[i].Window), key(live[j].Window)
		if ki != kj {
			return ki > kj
		}
		if live[i].Tenant != live[j].Tenant {
			return live[i].Tenant < live[j].Tenant
		}
		return live[i].Topology < live[j].Topology
	})
	if len(live) > n {
		live = live[:n]
	}
	top := make([]usage.PrincipalUsage, len(live), len(live)+1)
	copy(top, live)
	if rollup != nil {
		top = append(top, *rollup)
	}
	writeJSON(w, http.StatusOK, UsageResponse{
		WindowSeconds: s.usage.Window().Seconds(),
		Capacity:      s.usage.Capacity(),
		Principals:    s.usage.Len(),
		Evictions:     s.usage.Evictions(),
		By:            by,
		Top:           top,
	})
}

// chargeRun attributes one model run's measured cost to the request's
// (tenant, topology) principal. No-op for unmetered (zero) costs.
func (s *Service) chargeRun(ctx context.Context, topology string, cost core.RunCost) {
	if cost == (core.RunCost{}) {
		return
	}
	s.usage.RecordRun(RequestTenant(ctx), topology,
		time.Duration(cost.WallNanos), time.Duration(cost.CPUNanos),
		cost.AllocBytes, cost.SimTicks)
}
