package api

import (
	"net/http"

	"caladrius/internal/profiler"
)

// The continuous-profiler surface: status, hot-function tables,
// baseline regression diffs, and merged flame stacks over the recent
// epoch windows. The routes need the profiler (needsProfiler): with
// -profile-interval 0 they answer 404, which calctl turns into its
// "profiler disabled" notice.

// ProfileTopResponse is the payload of GET /api/v1/profiles/top.
type ProfileTopResponse struct {
	Kind      profiler.Kind       `json:"kind"`
	Unit      string              `json:"unit,omitempty"`
	Total     int64               `json:"total"`
	Samples   int64               `json:"samples"`
	Functions []profiler.FuncStat `json:"functions"`
}

// ProfileFlameResponse is the payload of GET /api/v1/profiles/flame.
type ProfileFlameResponse struct {
	Kind   profiler.Kind        `json:"kind"`
	Unit   string               `json:"unit,omitempty"`
	Total  int64                `json:"total"`
	Stacks []profiler.StackStat `json:"stacks"`
}

// ProfileDiffResponse is the payload of GET /api/v1/profiles/diff.
// Baseline is null (and Diff empty) until the profiler's first epoch
// window completes.
type ProfileDiffResponse struct {
	Baseline *profiler.BaselineMeta `json:"baseline"`
	Diff     *profiler.Diff         `json:"diff"`
}

// profileParams parses the shared ?kind=&n= query parameters,
// rejecting unknown parameters like the history endpoints do.
func profileParams(w http.ResponseWriter, r *http.Request) (profiler.Kind, int, bool) {
	q := r.URL.Query()
	for key := range q {
		if key != "kind" && key != "n" {
			httpError(w, http.StatusBadRequest, "unknown parameter "+key)
			return "", 0, false
		}
	}
	kind := q.Get("kind")
	if kind == "" {
		kind = string(profiler.KindCPU)
	}
	if !profiler.ValidKind(kind) {
		httpError(w, http.StatusBadRequest, "kind must be one of cpu|heap|goroutine|mutex")
		return "", 0, false
	}
	n, ok := positiveParam(w, q, "n", 0) // 0 = server-side topk default
	return profiler.Kind(kind), n, ok
}

func (s *Service) handleProfiles(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.profiler.Status())
}

func (s *Service) handleProfilesTop(w http.ResponseWriter, r *http.Request) {
	kind, n, ok := profileParams(w, r)
	if !ok {
		return
	}
	funcs, total, samples, unit := s.profiler.Top(kind, n)
	writeJSON(w, http.StatusOK, ProfileTopResponse{
		Kind: kind, Unit: unit, Total: total, Samples: samples, Functions: funcs,
	})
}

func (s *Service) handleProfilesDiff(w http.ResponseWriter, r *http.Request) {
	kind, n, ok := profileParams(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, ProfileDiffResponse{
		Baseline: s.profiler.Status().Baseline,
		Diff:     s.profiler.DiffKind(kind, n),
	})
}

func (s *Service) handleProfilesFlame(w http.ResponseWriter, r *http.Request) {
	kind, n, ok := profileParams(w, r)
	if !ok {
		return
	}
	stacks, total, unit := s.profiler.Flame(kind, n)
	writeJSON(w, http.StatusOK, ProfileFlameResponse{
		Kind: kind, Unit: unit, Total: total, Stacks: stacks,
	})
}

func (s *Service) handleProfilesBaseline(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.profiler.SetBaseline())
}
