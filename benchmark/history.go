package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"caladrius/internal/tsdb"
)

// The preloaded history stands for a daemon that has been up for an
// hour: 800 series of 720 points at the scraper's 5 s interval, ending
// at run start, so that the live scraper continues them. It is built
// through tsdb's public API and written with SaveFile, the same path
// the daemon's own shutdown snapshot takes.
const (
	historySeries   = 800
	historyPoints   = 720
	historyInterval = 5 * time.Second
)

var (
	historyRoutes = []string{
		"/api/v1/health", "/api/v1/model/traffic/{topology}", "/api/v1/model/traffic/{topology}/rank",
		"/api/v1/model/topology/{topology}/performance", "/api/v1/model/topology/{topology}/suggest",
		"/api/v1/model/topology/{topology}/calibrate", "/api/v1/jobs/{id}", "/api/v1/query_range",
		"/api/v1/alerts", "/api/v1/audit", "/api/v1/usage", "/api/v1/sched",
	}
	historyMethods = []string{"GET", "POST"}
	historyClasses = []string{"2xx", "4xx", "5xx"}
	historyBounds  = []string{"0.0005", "0.001", "0.0025", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "5", "10", "+Inf"}
)

// historySeriesSpec is one series to preload: its identity and the
// range its seeded values walk in.
type historySeriesSpec struct {
	metric string
	labels tsdb.Labels
	lo, hi float64
}

// historySpecs lists the nine `calctl dash` panel metrics — the three
// HTTP ones fanned out over route × method × class — and fills up to
// historySeries with latency-bucket series no panel reads, which cost
// snapshot load time and memory like a real daemon's would.
func historySpecs() []historySeriesSpec {
	var specs []historySeriesSpec
	for _, m := range []struct {
		metric string
		lo, hi float64
	}{
		{dashPanels[0].metric, 0, 40},       // requests/s
		{dashPanels[1].metric, 0.001, 0.05}, // p95 seconds, below the 0.5 s SLO
		{dashPanels[2].metric, 0, 3},        // in flight
	} {
		for _, route := range historyRoutes {
			for _, method := range historyMethods {
				for _, class := range historyClasses {
					specs = append(specs, historySeriesSpec{m.metric, tsdb.Labels{"route": route, "method": method, "class": class}, m.lo, m.hi})
				}
			}
		}
	}
	specs = append(specs,
		historySeriesSpec{dashPanels[3].metric, nil, 20, 60},
		historySeriesSpec{dashPanels[4].metric, tsdb.Labels{"topology": topologyName}, 0, 3},
		historySeriesSpec{dashPanels[5].metric, tsdb.Labels{"topology": topologyName, "model": "predict"}, 0, 0.1},
		historySeriesSpec{dashPanels[5].metric, tsdb.Labels{"topology": topologyName, "model": "plan"}, 0, 0.1},
		historySeriesSpec{dashPanels[6].metric, nil, 0, 0.05},
		historySeriesSpec{dashPanels[7].metric, nil, 0, 8},
		historySeriesSpec{dashPanels[8].metric, nil, 0, 0.1},
	)
	for _, route := range historyRoutes {
		for _, method := range historyMethods {
			for _, class := range historyClasses {
				for _, le := range historyBounds {
					if len(specs) == historySeries {
						return specs
					}
					specs = append(specs, historySeriesSpec{
						"caladrius_http_request_duration_seconds_bucket",
						tsdb.Labels{"route": route, "method": method, "class": class, "le": le}, 0, 1e3,
					})
				}
			}
		}
	}
	return specs
}

// buildHistory fills a store with the preloaded series. Values are a
// seeded bounded random walk; timestamps end at end.
func buildHistory(seed int64, end time.Time) *tsdb.DB {
	rng := phaseRNG(seed, streamHistory)
	db := tsdb.New(time.Hour)
	first := end.Add(-time.Duration(historyPoints-1) * historyInterval)
	for _, spec := range historySpecs() {
		h := db.Handle(spec.metric, spec.labels)
		v := spec.lo + rng.Float64()*(spec.hi-spec.lo)
		for i := 0; i < historyPoints; i++ {
			v += (rng.Float64() - 0.5) * (spec.hi - spec.lo) * 0.05
			if v < spec.lo {
				v = spec.lo
			}
			if v > spec.hi {
				v = spec.hi
			}
			// Three decimals keep the snapshot near 21 MB; full float64
			// text made it a third larger and slower to load.
			h.Append(first.Add(time.Duration(i)*historyInterval), math.Round(v*1e3)/1e3)
		}
	}
	return db
}

// historyStats are the tsdb layer numbers that fall out of generating
// the history.
type historyStats struct {
	saveS, loadS  float64
	bytes         int64
	bytesPerPoint float64
}

// writeHistory generates the history and saves it to path. With
// measure set it also times a reload and sizes the store in memory.
func writeHistory(path string, seed int64, measure bool) (historyStats, error) {
	var st historyStats
	var before runtime.MemStats
	if measure {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	db := buildHistory(seed, time.Now())
	if measure {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		st.bytesPerPoint = float64(after.HeapAlloc-before.HeapAlloc) / float64(db.TotalPoints())
	}
	t0 := time.Now()
	if err := db.SaveFile(path); err != nil {
		return st, err
	}
	st.saveS = time.Since(t0).Seconds()
	fi, err := os.Stat(path)
	if err != nil {
		return st, err
	}
	st.bytes = fi.Size()
	if measure {
		t0 = time.Now()
		loaded, err := tsdb.LoadFile(path)
		if err != nil {
			return st, err
		}
		st.loadS = time.Since(t0).Seconds()
		if loaded.TotalPoints() != historySeries*historyPoints {
			return st, fmt.Errorf("reloaded history holds %d points, want %d", loaded.TotalPoints(), historySeries*historyPoints)
		}
	}
	return st, nil
}
