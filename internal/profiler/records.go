package profiler

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
)

// records folds the heap, goroutine and mutex snapshots straight from
// the runtime's profile records, without the gzipped pprof round trip
// that runtime/pprof would encode and Parse would decode again. The
// buffers are kept and reused between capture rounds. Each kind folds
// the value and unit runtime/pprof would write for it: heap its scaled
// inuse_space in bytes, goroutine a count per stack, mutex the delay
// in nanoseconds. The public record APIs carry at most 32 frames a
// stack (runtime/pprof keeps up to 128), so a deeper stack loses its
// root-most frames. Not safe for concurrent use; the Profiler calls it
// under its lock.
type records struct {
	mem   []runtime.MemProfileRecord
	gor   []runtime.StackRecord
	mutex []runtime.BlockProfileRecord

	// byStack sums one capture's records per stack: goroutines into
	// counts, mutex records into cycles. It is cleared every capture.
	byStack map[[32]uintptr]int64
	// mutexCycles holds each mutex stack's cumulative cycles at the
	// previous capture, so a capture folds only the delay that accrued
	// since: runtime.MutexProfile counts from process start.
	mutexCycles map[[32]uintptr]int64
}

// fold reads heap, goroutine or mutex records from the runtime and
// folds them into t.
func (r *records) fold(kind Kind, t *Table) error {
	switch kind {
	case KindHeap:
		r.foldHeap(t)
	case KindGoroutine:
		r.foldGoroutines(t)
	case KindMutex:
		return r.foldMutex(t)
	}
	return nil
}

func (r *records) foldHeap(t *Table) {
	n, ok := runtime.MemProfile(r.mem, false)
	for !ok {
		r.mem = make([]runtime.MemProfileRecord, n+50)
		n, ok = runtime.MemProfile(r.mem, false)
	}
	if t.Unit == "" {
		t.Unit = "bytes"
	}
	rate := int64(runtime.MemProfileRate)
	for i := range r.mem[:n] {
		rec := &r.mem[i]
		if v := scaleHeapSample(rec.InUseObjects(), rec.InUseBytes(), rate); v > 0 {
			t.foldStack(rec.Stack(), v, true)
		}
	}
}

// scaleHeapSample is runtime/pprof's estimate of the unsampled size:
// each sample divided by its probability 1−exp(−S/R) of being
// recorded at MemProfileRate R.
func scaleHeapSample(count, size, rate int64) int64 {
	if count == 0 || size == 0 {
		return 0
	}
	if rate <= 1 {
		return size
	}
	avgSize := float64(size) / float64(count)
	scale := 1 / (1 - math.Exp(-avgSize/float64(rate)))
	return int64(float64(size) * scale)
}

func (r *records) foldGoroutines(t *Table) {
	// GoroutineProfile allocates as many records as it is handed, so
	// hand it the goroutine count and a margin, not the whole buffer.
	want := runtime.NumGoroutine() + 10
	for {
		if cap(r.gor) < want {
			r.gor = make([]runtime.StackRecord, want)
		}
		n, ok := runtime.GoroutineProfile(r.gor[:want])
		if ok {
			if t.Unit == "" {
				t.Unit = "count"
			}
			r.foldByStack(t, n, func(i int) (*runtime.StackRecord, int64) { return &r.gor[i], 1 }, nil)
			return
		}
		want = n + 10
	}
}

func (r *records) foldMutex(t *Table) error {
	ghz, err := cpuGHz()
	if err != nil {
		return err
	}
	n, ok := runtime.MutexProfile(r.mutex)
	for !ok {
		r.mutex = make([]runtime.BlockProfileRecord, n+50)
		n, ok = runtime.MutexProfile(r.mutex)
	}
	if t.Unit == "" {
		t.Unit = "nanoseconds"
	}
	if r.mutexCycles == nil {
		r.mutexCycles = make(map[[32]uintptr]int64)
	}
	r.foldByStack(t, n, func(i int) (*runtime.StackRecord, int64) { return &r.mutex[i].StackRecord, r.mutex[i].Cycles },
		func(stk *runtime.StackRecord, cycles int64) int64 {
			d := cycles - r.mutexCycles[stk.Stack0]
			r.mutexCycles[stk.Stack0] = cycles
			return int64(float64(d) / ghz)
		})
	return nil
}

// foldByStack sums the values of records 0..n-1 per stack and folds
// each stack once, as runtime/pprof writes one sample per distinct
// stack. value, when set, maps a stack's sum to the value folded.
func (r *records) foldByStack(t *Table, n int, rec func(i int) (*runtime.StackRecord, int64), value func(*runtime.StackRecord, int64) int64) {
	if r.byStack == nil {
		r.byStack = make(map[[32]uintptr]int64)
	}
	clear(r.byStack)
	for i := 0; i < n; i++ {
		s, v := rec(i)
		r.byStack[s.Stack0] += v
	}
	for i := 0; i < n; i++ {
		s, _ := rec(i)
		sum, pending := r.byStack[s.Stack0]
		if !pending {
			continue // folded with an earlier record of the same stack
		}
		delete(r.byStack, s.Stack0)
		if value != nil {
			sum = value(s, sum)
		}
		if sum > 0 {
			t.foldStack(s.Stack(), sum, false)
		}
	}
}

// foldStack symbolizes a record's stack of return PCs, leaf first,
// with runtime.CallersFrames and folds it with value v. runtime.goexit
// is dropped, as runtime/pprof drops it. hideRuntime hides the leading
// runtime frames the way runtime/pprof does for heap samples, showing
// them only when nothing else is left.
func (t *Table) foldStack(stk []uintptr, v int64, hideRuntime bool) {
	t.frames = t.frames[:0]
	if hideRuntime {
		for i, pc := range stk {
			if f := runtime.FuncForPC(pc); f == nil || !isRuntimeFunc(f.Name()) {
				t.symbolize(stk[i:])
				break
			}
		}
	}
	if len(t.frames) == 0 {
		t.symbolize(stk)
	}
	t.foldFrames(v)
}

func isRuntimeFunc(name string) bool {
	return strings.HasPrefix(name, "runtime.") || strings.HasPrefix(name, "internal/runtime/")
}

// symbolize appends stk's named frames, inlined ones included, to
// t.frames.
func (t *Table) symbolize(stk []uintptr) {
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		if f.Function != "" && f.Function != "runtime.goexit" {
			t.frames = append(t.frames, f.Function)
		}
		if !more {
			return
		}
	}
}

// cpuGHz is the rate runtime/pprof divides mutex cycles by to write
// nanoseconds. The runtime measures it once per process and exposes
// it only as the cycles/second line of the mutex profile's text form.
var cpuGHz = sync.OnceValues(func() (float64, error) {
	var b bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&b, 1); err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(b.String(), "cycles/second=")
	line, _, _ := strings.Cut(rest, "\n")
	cps, err := strconv.ParseInt(line, 10, 64)
	if !ok || err != nil || cps <= 0 {
		return 0, errors.New("profiler: no cycles/second in the mutex profile")
	}
	return float64(cps) / 1e9, nil
})
