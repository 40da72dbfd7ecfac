package api

import (
	"errors"
	"testing"
	"time"
)

func TestJobStoreLifecycle(t *testing.T) {
	now := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	s := newJobStore(func() time.Time { return now })
	j := s.create()
	if j.ID != "job-1" || j.Status != JobPending || !j.CreatedAt.Equal(now) {
		t.Fatalf("job = %+v", j)
	}
	s.start(j.ID)
	got, ok := s.get(j.ID)
	if !ok || got.Status != JobRunning {
		t.Fatalf("running job = %+v (ok=%v)", got, ok)
	}
	s.complete(j.ID, "result", nil)
	if got, _ = s.get(j.ID); got.Status != JobDone || got.Result != "result" {
		t.Errorf("done job = %+v", got)
	}
	// Failure path.
	j2 := s.create()
	s.start(j2.ID)
	s.complete(j2.ID, "ignored", errors.New("boom"))
	if got, _ = s.get(j2.ID); got.Status != JobFailed || got.Error != "boom" || got.Result != nil {
		t.Errorf("failed job = %+v", got)
	}
	// A job shed before it ran leaves no record.
	j3 := s.create()
	s.remove(j3.ID)
	if _, ok := s.get(j3.ID); ok {
		t.Error("removed job still found")
	}
	// Unknown ids are inert.
	if _, ok := s.get("nope"); ok {
		t.Error("unknown job found")
	}
	s.setStatus("nope", JobDone, nil, "") // must not panic
}
