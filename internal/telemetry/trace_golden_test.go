package telemetry

import (
	"encoding/json"
	"testing"
	"time"
)

// goldenTrace builds one trace the way the API tier does (root
// attributes, a coalesced flag set late, a re-set key, nested stages,
// siblings that end out of start order) and leaves one span open.
func goldenTrace() *Tracer {
	tr := NewTracer(4, fakeClock(1500*time.Microsecond))
	root := tr.Start("req-7", "performance")
	root.SetAttr("path", "/api/v1/model/topology/word-count/performance")
	root.SetAttr("mode", "sync")
	root.SetAttr("tenant", "team-a")
	wait := root.Child("queue-wait")
	fetch := root.Child("tracker.fetch")
	wait.End()
	fetch.End()
	calib := root.Child("calibrate")
	calib.SetAttr("cache", "miss")
	calib.SetAttr("cache", "hit")
	calib.StartStage("calibrate:splitter")()
	calib.StartStage("calibrate:counter")()
	calib.End()
	pred := root.Child("predict")
	pred.SetAttr("forecast:x,\"y\"", "a=b\nc")
	pred.End()
	root.SetAttr("coalesced", "true")
	root.End()

	job := tr.Start("job-1", "suggest")
	job.SetAttr("mode", "async")
	job.Child("queue-wait").End()
	job.Child("plan") // still running
	return tr
}

// The wire form of a trace, as GET /api/v1/jobs/{id}/trace and incident
// bundles serve it, byte for byte.
const goldenTraceJSON = `[{"trace_id":"req-7","spans":[{"name":"performance","start":"2026-08-05T00:00:00.0015Z","duration_ms":19.5,"attrs":{"coalesced":"true","mode":"sync","path":"/api/v1/model/topology/word-count/performance","tenant":"team-a"},"children":[{"name":"queue-wait","start":"2026-08-05T00:00:00.003Z","duration_ms":3},{"name":"tracker.fetch","start":"2026-08-05T00:00:00.0045Z","duration_ms":3},{"name":"calibrate","start":"2026-08-05T00:00:00.009Z","duration_ms":7.5,"attrs":{"cache":"hit"},"children":[{"name":"calibrate:splitter","start":"2026-08-05T00:00:00.0105Z","duration_ms":1.5},{"name":"calibrate:counter","start":"2026-08-05T00:00:00.0135Z","duration_ms":1.5}]},{"name":"predict","start":"2026-08-05T00:00:00.018Z","duration_ms":1.5,"attrs":{"forecast:x,\"y\"":"a=b\nc"}}]}]},{"trace_id":"job-1","spans":[{"name":"suggest","start":"2026-08-05T00:00:00.0225Z","duration_ms":7.5,"in_progress":true,"attrs":{"mode":"async"},"children":[{"name":"queue-wait","start":"2026-08-05T00:00:00.024Z","duration_ms":1.5},{"name":"plan","start":"2026-08-05T00:00:00.027Z","duration_ms":3,"in_progress":true}]}]}]`

// TestTraceJSONGolden pins the snapshot encoding: Recent and Snapshot
// serve the same bytes for a mix of finished and open spans.
func TestTraceJSONGolden(t *testing.T) {
	tr := goldenTrace()
	got, err := json.Marshal(tr.Recent(4))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenTraceJSON {
		t.Errorf("Recent encodes as\n%s\nwant\n%s", got, goldenTraceJSON)
	}
	// Snapshot reads the clock once per call, so a fresh tracer at the
	// same point reproduces Recent's first trace.
	tj, ok := goldenTrace().Snapshot("req-7")
	if !ok {
		t.Fatal("req-7 missing")
	}
	one, _ := json.Marshal([]TraceJSON{tj})
	var want []json.RawMessage
	if err := json.Unmarshal([]byte(goldenTraceJSON), &want); err != nil {
		t.Fatal(err)
	}
	if string(one) != "["+string(want[0])+"]" {
		t.Errorf("Snapshot(req-7) encodes as\n%s\nwant\n[%s]", one, want[0])
	}
}
