package api

import (
	"net/http"

	"caladrius/internal/sched"
)

// The scheduler surface: GET /api/v1/sched exposes a point-in-time
// snapshot of the model-run scheduler (queue, workers, coalescing,
// sheds) and the calibration cache (hits, misses, residency).

// SchedResponse is the payload of GET /api/v1/sched.
type SchedResponse struct {
	Scheduler sched.Stats         `json:"scheduler"`
	CalCache  sched.CalCacheStats `json:"calcache"`
}

func (s *Service) handleSched(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, SchedResponse{
		Scheduler: s.schedr.Stats(),
		CalCache:  s.calcache.Stats(),
	})
}
