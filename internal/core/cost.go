package core

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// Model-run resource metering. The usage accountant (internal/usage)
// charges every predict/plan/calibrate run to a (tenant, topology)
// principal; RunCost is what it charges: the wall time, CPU thread
// time and heap allocation the run consumed. Like StageTimer, the
// sampler keeps core free of any usage dependency — the API tier owns
// attribution, core only measures.

// RunCost is the measured resource footprint of one model run.
type RunCost struct {
	// WallNanos is elapsed wall-clock time.
	WallNanos int64 `json:"wall_ns"`
	// CPUNanos is CPU time consumed by the OS thread the run was pinned
	// to (CLOCK_THREAD_CPUTIME_ID on linux; zero where unsupported).
	CPUNanos int64 `json:"cpu_ns"`
	// AllocBytes is the process-wide heap allocation delta over the run
	// (runtime/metrics /gc/heap/allocs:bytes — cheap, unlike
	// ReadMemStats, but attributes concurrent runs' allocations too; an
	// accounting approximation, not an isolation boundary).
	AllocBytes uint64 `json:"alloc_bytes"`
}

// Wall and CPU return the components as durations.
func (c RunCost) Wall() time.Duration { return time.Duration(c.WallNanos) }
func (c RunCost) CPU() time.Duration  { return time.Duration(c.CPUNanos) }

// CostSampler measures RunCosts. It has no state: the zero value
// measures.
type CostSampler struct{}

// CostMark is an in-progress measurement returned by Begin.
type CostMark struct {
	start  time.Time
	cpu    int64
	allocs uint64
}

// Begin starts a measurement, pinning the calling goroutine to its OS
// thread so the thread CPU clock covers exactly this run. Every Begin
// must be paired with End on the same goroutine.
func (*CostSampler) Begin() CostMark {
	runtime.LockOSThread()
	return CostMark{
		start:  time.Now(),
		cpu:    threadCPUNanos(),
		allocs: heapAllocBytes(),
	}
}

// End completes a measurement started by Begin and unpins the
// goroutine.
func (*CostSampler) End(m CostMark) RunCost {
	var c RunCost
	if cpu := threadCPUNanos(); cpu > m.cpu {
		c.CPUNanos = cpu - m.cpu
	}
	runtime.UnlockOSThread()
	c.WallNanos = time.Since(m.start).Nanoseconds()
	if a := heapAllocBytes(); a > m.allocs {
		c.AllocBytes = a - m.allocs
	}
	return c
}

// heapAllocBytes reads the cumulative heap-allocation counter. It is
// the ReadMemStats-free path: no stop-the-world, safe on every request.
func heapAllocBytes() uint64 {
	sample := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample[:])
	if sample[0].Value.Kind() == metrics.KindUint64 {
		return sample[0].Value.Uint64()
	}
	return 0
}

// PredictMeasured is Predict under a "predict" stage of st (nil: no
// stage) and a sampler mark: the run's RunCost is returned with the
// prediction. Failed evaluations still report their cost — the caller
// paid for them.
func (tm *TopologyModel) PredictMeasured(st StageTimer, s *CostSampler, parallelisms map[string]int, sourceRate float64) (TopologyPrediction, RunCost, error) {
	if st != nil {
		defer st.StartStage("predict")()
	}
	m := s.Begin()
	pred, err := tm.Predict(parallelisms, sourceRate)
	return pred, s.End(m), err
}
