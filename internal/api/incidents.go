package api

import (
	"net/http"
	"strings"

	"caladrius/internal/incident"
)

// The incident flight-recorder surface: bundles captured when an SLO
// fired (or on demand) are listed and downloaded here. The routes need
// the recorder (needsIncidents): without one they answer 404.

// IncidentListResponse is the payload of GET /api/v1/incidents.
type IncidentListResponse struct {
	Incidents []incident.Manifest `json:"incidents"`
	Count     int                 `json:"count"`
}

// IncidentResponse is the payload of GET /api/v1/incidents/{id}: the
// manifest plus per-artifact download paths.
type IncidentResponse struct {
	incident.Manifest
	ArtifactURLs map[string]string `json:"artifact_urls,omitempty"`
}

func (s *Service) handleIncidentsList(w http.ResponseWriter, _ *http.Request) {
	list := s.incidents.List()
	if list == nil {
		list = []incident.Manifest{}
	}
	writeJSON(w, http.StatusOK, IncidentListResponse{Incidents: list, Count: len(list)})
}

func (s *Service) handleIncident(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, ok := s.incidents.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no incident "+id+" (pruned or never captured)")
		return
	}
	writeJSON(w, http.StatusOK, incidentResponse(m))
}

func (s *Service) handleIncidentArtifact(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	path, ok := s.incidents.ArtifactPath(id, name)
	if !ok {
		httpError(w, http.StatusNotFound, "no artifact "+name+" in incident "+id)
		return
	}
	if strings.HasSuffix(name, ".json") {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	http.ServeFile(w, r, path)
}

// handleIncidentCapture performs a synchronous manual capture. It
// bypasses the SLO cooldown (explicit operator intent) but serializes
// with any in-flight capture, so the response carries the finished
// manifest.
func (s *Service) handleIncidentCapture(w http.ResponseWriter, _ *http.Request) {
	m, err := s.incidents.CaptureNow()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, incidentResponse(m))
}

func incidentResponse(m incident.Manifest) IncidentResponse {
	resp := IncidentResponse{Manifest: m, ArtifactURLs: map[string]string{}}
	for _, a := range m.Artifacts {
		resp.ArtifactURLs[a.Name] = "/api/v1/incidents/" + m.ID + "/artifacts/" + a.Name
	}
	return resp
}
