package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator is one process held to one P (see main), driving
// min(2, nproc) keep-alive connections. Answers are kept in memory and
// validated after the phase, so that checking one answer never delays
// sending the next request.

const tenantHeader = "X-Caladrius-Tenant"

// sample is the outcome of one operation.
type sample struct {
	req    *request
	status int
	body   []byte
	err    error
	// latency runs from the due time in a paced phase, so it counts the
	// wait a stall imposes on later requests, less the generator's own
	// lateness; in a closed loop it runs from the send time.
	latency time.Duration
	// lateness is how long after max(due time, connection free) the
	// request was sent: delay caused by the generator itself. Go timers
	// wake about a millisecond late on an idle P, which is the
	// generator's error, not the daemon's, so it is reported on its own
	// and kept out of latency.
	lateness time.Duration
}

func connections() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// worker owns one keep-alive connection.
type worker struct {
	client *http.Client
	base   string
}

func newWorkers(base string, n int) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{
			base: base,
			client: &http.Client{
				Timeout:   30 * time.Second,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			},
		}
	}
	return ws
}

func closeWorkers(ws []*worker) {
	for _, w := range ws {
		w.client.CloseIdleConnections()
	}
}

// roundTrip sends one HTTP request and reads the whole answer.
func (w *worker) roundTrip(method, path, body, tenant string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// jobPollInterval is how often an async job's status is re-read.
const jobPollInterval = 2 * time.Millisecond

// do executes one operation. An async traffic job is one operation made
// of several requests: submit, then poll until the job leaves the
// pending and running states; its sample carries the final job body.
func (w *worker) do(r *request) (int, []byte, error) {
	status, body, err := w.roundTrip(r.Method, r.Path, r.Body, r.Tenant)
	if r.Op != opTrafficJob || err != nil {
		return status, body, err
	}
	if status != http.StatusAccepted {
		return status, body, fmt.Errorf("job submit answered %d, want 202", status)
	}
	var accepted struct {
		Poll string `json:"poll"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil || accepted.Poll == "" {
		return status, body, fmt.Errorf("job submit body %q has no poll link", body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, body, err = w.roundTrip("GET", accepted.Poll, "", r.Tenant)
		if err != nil || status != http.StatusOK {
			return status, body, err
		}
		var job struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &job); err != nil {
			return status, body, err
		}
		if job.Status != "pending" && job.Status != "running" {
			return status, body, nil
		}
		if time.Now().After(deadline) {
			return status, body, fmt.Errorf("job still %s after 10s", job.Status)
		}
		time.Sleep(jobPollInterval)
	}
}

// phase is what one timed stretch of load produced.
type phase struct {
	samples []sample
	wall    time.Duration
	// genCPU is the generator's own user+system time over the phase.
	genCPU time.Duration
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPaced is the open loop: due times are fixed in advance, a free
// connection takes the next request and sleeps until it is due, and
// latency is measured from the due time whether or not the request
// could be sent then.
func runPaced(base string, reqs []request) phase {
	ws := newWorkers(base, connections())
	defer closeWorkers(ws)
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 := selfCPU()
	start := time.Now()
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				due := start.Add(r.Due)
				ready := time.Now()
				if wait := due.Sub(ready); wait > 0 {
					time.Sleep(wait)
					ready = due
				}
				lateness := time.Since(ready)
				status, body, err := w.do(r)
				samples[i] = sample{
					req: r, status: status, body: body, err: err,
					latency:  time.Since(due) - lateness,
					lateness: lateness,
				}
			}
		}(w)
	}
	wg.Wait()
	return phase{samples: samples, wall: time.Since(start), genCPU: selfCPU() - cpu0}
}

// runClosed is the closed loop: each client sends its next request as
// soon as the previous one is answered, for d, or until the ring has
// been consumed once when d is zero.
func runClosed(base string, ring []request, clients int, d time.Duration) phase {
	ws := newWorkers(base, clients)
	defer closeWorkers(ws)
	perWorker := make([][]sample, len(ws))
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 := selfCPU()
	start := time.Now()
	for wi, w := range ws {
		wg.Add(1)
		go func(wi int, w *worker) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if d == 0 && i >= len(ring) {
					return
				}
				r := &ring[i%len(ring)]
				sent := time.Now()
				if d > 0 && sent.Sub(start) >= d {
					return
				}
				status, body, err := w.do(r)
				perWorker[wi] = append(perWorker[wi], sample{
					req: r, status: status, body: body, err: err,
					latency: time.Since(sent),
				})
			}
		}(wi, w)
	}
	wg.Wait()
	ph := phase{wall: time.Since(start), genCPU: selfCPU() - cpu0}
	for _, s := range perWorker {
		ph.samples = append(ph.samples, s...)
	}
	return ph
}
