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

// TestJobStoreBoundsFinishedJobs completes more jobs than the store
// keeps while one stays running from the start: the oldest finished are
// forgotten, the unfinished one and the newest are not.
func TestJobStoreBoundsFinishedJobs(t *testing.T) {
	s := newJobStore(nil)
	running := s.create()
	s.start(running.ID)
	var done []string
	for i := 0; i < maxFinishedJobs+10; i++ {
		j := s.create()
		s.start(j.ID)
		if i%2 == 0 {
			s.complete(j.ID, i, nil)
		} else {
			s.complete(j.ID, nil, errors.New("boom"))
		}
		done = append(done, j.ID)
	}
	for _, id := range done[:10] {
		if _, ok := s.get(id); ok {
			t.Errorf("evicted job %s still served", id)
		}
	}
	for _, id := range done[10:] {
		if _, ok := s.get(id); !ok {
			t.Fatalf("job %s among the newest %d finished is gone", id, maxFinishedJobs)
		}
	}
	if got, ok := s.get(running.ID); !ok || got.Status != JobRunning {
		t.Errorf("running job = %+v (ok=%v), want it kept", got, ok)
	}
	if len(s.jobs) != maxFinishedJobs+1 {
		t.Errorf("store holds %d jobs, want %d finished + 1 running", len(s.jobs), maxFinishedJobs)
	}
}
