package profiler

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
)

// pprofTable folds kind's runtime/pprof snapshot through Parse and
// Fold: the path the records replace.
func pprofTable(t *testing.T, kind Kind) *Table {
	t.Helper()
	var buf bytes.Buffer
	if err := CaptureProfile(&buf, string(kind)); err != nil {
		t.Fatal(err)
	}
	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable()
	tbl.Fold(p)
	return tbl
}

// recordsTable folds kind from the runtime's records.
func recordsTable(t *testing.T, r *records, kind Kind) *Table {
	t.Helper()
	tbl := NewTable()
	if err := r.fold(kind, tbl); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// printName is the name runtime.Frame carries for a function: a
// generic one's type arguments print as "[...]", where runtime/pprof
// writes the shape, as in F[go.shape.int].
func printName(fn string) string {
	i, j := strings.IndexByte(fn, '['), strings.LastIndexByte(fn, ']')
	if i < 0 || j < i {
		return fn
	}
	return fn[:i] + "[...]" + fn[j+1:]
}

// funcsOf maps every function of tbl, by printName, to its flat and
// cum values.
func funcsOf(tbl *Table) map[string][2]int64 {
	out := map[string][2]int64{}
	for _, fs := range tbl.Funcs(0) {
		v := out[printName(fs.Function)]
		out[printName(fs.Function)] = [2]int64{v[0] + fs.Flat, v[1] + fs.Cum}
	}
	return out
}

// funcsOn maps the functions of tbl's stacks that contain marker to
// their flat and cum values, summed from the flame stacks so that
// unrelated stacks (the capturing goroutine's own) drop out.
func funcsOn(tbl *Table, marker string) map[string][2]int64 {
	out := map[string][2]int64{}
	for _, st := range tbl.Stacks(0) {
		if !strings.Contains(st.Stack, marker) {
			continue
		}
		frames := strings.Split(st.Stack, ";")
		seen := map[string]bool{}
		for i, fn := range frames {
			v := out[fn]
			if i == len(frames)-1 {
				v[0] += st.Value
			}
			if !seen[fn] {
				seen[fn] = true
				v[1] += st.Value
			}
			out[fn] = v
		}
	}
	return out
}

func sameFuncs(t *testing.T, kind Kind, got, want *Table, g, w map[string][2]int64) {
	t.Helper()
	if got.Unit != want.Unit {
		t.Errorf("%s: unit %q, pprof %q", kind, got.Unit, want.Unit)
	}
	if len(w) == 0 {
		t.Fatalf("%s: pprof folded nothing to compare", kind)
	}
	for fn, wv := range w {
		if g[fn] != wv {
			t.Errorf("%s: %s flat/cum %v, pprof %v", kind, fn, g[fn], wv)
		}
	}
	for fn, gv := range g {
		if _, ok := w[fn]; !ok {
			t.Errorf("%s: %s flat/cum %v, absent from pprof", kind, fn, gv)
		}
	}
}

const pkgPrefix = "caladrius/internal/profiler."

var (
	heapSink [][]byte
	mapSink  map[int]int
)

// allocForEquivalence allocates slices, whose samples' leaf is this
// function, and a map, whose samples' leaf frames are the runtime's map
// code that runtime/pprof hides.
//
//go:noinline
func allocForEquivalence() {
	for i := 0; i < 64; i++ {
		heapSink = append(heapSink, make([]byte, 1000+i))
	}
	mapSink = make(map[int]int)
	for i := 0; i < 1000; i++ {
		mapSink[i] = i
	}
}

//go:noinline
func parkForEquivalence(ch <-chan struct{}, wg *sync.WaitGroup) {
	wg.Done()
	<-ch
}

//go:noinline
func contendForEquivalence(mu *sync.Mutex) {
	mu.Lock()
	time.Sleep(20 * time.Microsecond)
	mu.Unlock()
}

// TestRecordsFoldMatchesPprof holds the record fold to the pprof fold
// it replaces: for the same runtime state both give the same functions
// with the same flat and cum values and the same unit.
func TestRecordsFoldMatchesPprof(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		// One sample per 512 bytes, so the allocations below are all
		// sampled and scaled; two GCs publish them to the profile, and
		// with GC off nothing moves between the two reads.
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = 512
		allocForEquivalence()
		defer func() { heapSink, mapSink = nil, nil }()
		runtime.GC()
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		want := pprofTable(t, KindHeap)
		got := recordsTable(t, &records{}, KindHeap)
		sameFuncs(t, KindHeap, got, want, funcsOf(got), funcsOf(want))
		if funcsOf(got)[pkgPrefix+"allocForEquivalence"][0] == 0 {
			t.Fatal("heap: allocForEquivalence holds nothing")
		}
	})
	t.Run("goroutine", func(t *testing.T) {
		ch := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 5; i++ {
			wg.Add(1)
			go parkForEquivalence(ch, &wg)
		}
		wg.Wait()
		defer close(ch)
		time.Sleep(10 * time.Millisecond) // let each reach its receive
		want := pprofTable(t, KindGoroutine)
		got := recordsTable(t, &records{}, KindGoroutine)
		const marker = pkgPrefix + "parkForEquivalence"
		sameFuncs(t, KindGoroutine, got, want, funcsOn(got, marker), funcsOn(want, marker))
		if v := funcsOn(got, marker)[marker][1]; v != 5 {
			t.Fatalf("goroutine: %d parked, want 5", v)
		}
	})
	t.Run("mutex", func(t *testing.T) {
		old := runtime.SetMutexProfileFraction(1)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 100; j++ {
					contendForEquivalence(&mu)
				}
			}()
		}
		wg.Wait()
		runtime.SetMutexProfileFraction(old)
		want := pprofTable(t, KindMutex)
		got := recordsTable(t, &records{}, KindMutex)
		const marker = pkgPrefix + "contendForEquivalence"
		sameFuncs(t, KindMutex, got, want, funcsOn(got, marker), funcsOn(want, marker))
		if funcsOn(got, marker)[marker][1] == 0 {
			t.Fatal("mutex: no delay folded under contendForEquivalence")
		}
	})
}

//go:noinline
func contendBeforeFirstRound(mu *sync.Mutex) {
	mu.Lock()
	time.Sleep(20 * time.Microsecond)
	mu.Unlock()
}

// TestMutexFoldsContentionAsItAccrues: runtime.MutexProfile counts
// from process start, and a capture folds only the delay that accrued
// since the previous one. Contention seeded before round 1 and none
// after it folds in round 1 and never again.
func TestMutexFoldsContentionAsItAccrues(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				contendBeforeFirstRound(&mu)
			}
		}()
	}
	wg.Wait()
	runtime.SetMutexProfileFraction(old)

	p := newTestProfiler(t, newFakeClock(), nil, nil)
	const marker = pkgPrefix + "contendBeforeFirstRound"
	var folded int64
	for round := 1; round <= 4; round++ {
		if _, err := p.capture(KindMutex); err != nil {
			t.Fatal(err)
		}
		p.mu.Lock()
		cum := funcsOn(p.cur.tables[KindMutex], marker)[marker][1]
		p.mu.Unlock()
		delay := cum - folded
		folded = cum
		switch {
		case round == 1 && delay <= 0:
			t.Fatalf("round 1 folded no delay for %s", marker)
		case round > 1 && delay != 0:
			t.Errorf("round %d folded %d ns for %s again, want 0", round, delay, marker)
		}
	}
}
