package api

import (
	"fmt"
	"sync"
	"time"

	"caladrius/internal/telemetry"
)

// JobStatus is the lifecycle state of an asynchronous modelling job.
type JobStatus string

// Job states.
const (
	JobPending JobStatus = "pending"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// Job is one asynchronous modelling request. The paper's API tier is
// asynchronous because model evaluations can take seconds; clients
// poll the job endpoint while the server pipelines calculations
// concurrently.
type Job struct {
	ID        string    `json:"id"`
	Status    JobStatus `json:"status"`
	CreatedAt time.Time `json:"created_at"`
	// Result is the model output once Status == done.
	Result any `json:"result,omitempty"`
	// Error is the failure message once Status == failed.
	Error string `json:"error,omitempty"`
}

// maxFinishedJobs bounds how many finished jobs — each holding its
// full Result — the store answers for, like every other per-request
// structure in the daemon. It is the tracer's bound, so a job and its
// GET /api/v1/jobs/{id}/trace stop answering at about the same age.
const maxFinishedJobs = telemetry.DefaultMaxTraces

type jobStore struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*Job
	now  func() time.Time
	// finished is a ring of the done and failed jobs' ids in the order
	// they finished; nFinished counts every one ever written to it.
	finished  [maxFinishedJobs]string
	nFinished int
}

func newJobStore(now func() time.Time) *jobStore {
	if now == nil {
		now = time.Now
	}
	return &jobStore{jobs: map[string]*Job{}, now: now}
}

// create registers a new pending job and returns its snapshot.
func (s *jobStore) create() Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &Job{ID: fmt.Sprintf("job-%d", s.seq), Status: JobPending, CreatedAt: s.now()}
	s.jobs[j.ID] = j
	return *j
}

// start marks a job running: the scheduler accepted its run into the
// queue.
func (s *jobStore) start(id string) {
	s.setStatus(id, JobRunning, nil, "")
}

// complete records a job's outcome, from the scheduler's completion
// callback.
func (s *jobStore) complete(id string, result any, err error) {
	if err != nil {
		s.setStatus(id, JobFailed, nil, err.Error())
		return
	}
	s.setStatus(id, JobDone, result, "")
}

// remove deletes a job that never ran (admission-shed before start).
func (s *jobStore) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
}

func (s *jobStore) setStatus(id string, st JobStatus, result any, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	j.Status = st
	j.Result = result
	j.Error = errMsg
	if st == JobDone || st == JobFailed {
		// Take the oldest finished job's slot; its id then answers like
		// an unknown one. A pending or running job is never in the ring,
		// so it is never evicted.
		slot := &s.finished[s.nFinished%maxFinishedJobs]
		delete(s.jobs, *slot)
		*slot = id
		s.nFinished++
	}
}

// get returns a snapshot of the job.
func (s *jobStore) get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}
