package telemetry

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// fakeClock advances a fixed step on every read, so span durations are
// deterministic.
func fakeClock(step time.Duration) func() time.Time {
	t0 := time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * step)
	}
}

func TestTracerSpanTree(t *testing.T) {
	tr := NewTracer(8, fakeClock(time.Millisecond))
	root := tr.Start("job-1", "performance")
	root.SetAttr("mode", "async")
	calib := root.Child("calibrate")
	calib.StartStage("calibrate:splitter")()
	calib.End()
	pred := root.Child("predict")
	pred.End()
	root.End()

	tj, ok := tr.Snapshot("job-1")
	if !ok {
		t.Fatal("trace missing")
	}
	if tj.TraceID != "job-1" || len(tj.Spans) != 1 {
		t.Fatalf("snapshot = %+v", tj)
	}
	rootJ := tj.Spans[0]
	if rootJ.Name != "performance" || rootJ.Attrs["mode"] != "async" || rootJ.InProgress {
		t.Errorf("root = %+v", rootJ)
	}
	if len(rootJ.Children) != 2 || rootJ.Children[0].Name != "calibrate" || rootJ.Children[1].Name != "predict" {
		t.Fatalf("children = %+v", rootJ.Children)
	}
	stage := rootJ.Children[0].Children
	if len(stage) != 1 || stage[0].Name != "calibrate:splitter" {
		t.Errorf("stage children = %+v", stage)
	}
	if rootJ.DurationMs <= 0 || rootJ.Children[0].DurationMs <= 0 {
		t.Errorf("durations: root %g, calibrate %g", rootJ.DurationMs, rootJ.Children[0].DurationMs)
	}
}

func TestTracerOpenSpanAndEviction(t *testing.T) {
	tr := NewTracer(2, fakeClock(time.Millisecond))
	sp := tr.Start("", "work")
	id := sp.TraceID()
	if id == "" {
		t.Fatal("no auto trace id")
	}
	tj, ok := tr.Snapshot(id)
	if !ok || !tj.Spans[0].InProgress || tj.Spans[0].DurationMs <= 0 {
		t.Errorf("open span = %+v", tj.Spans)
	}
	// Two more traces evict the first (max 2).
	for i := 0; i < 2; i++ {
		tr.Start(fmt.Sprintf("x-%d", i), "w").End()
	}
	if tr.Len() != 2 {
		t.Errorf("retained = %d, want 2", tr.Len())
	}
	if _, ok := tr.Snapshot(id); ok {
		t.Error("oldest trace not evicted")
	}
	// Children of an evicted span degrade to nil no-ops.
	if c := sp.Child("late"); c != nil {
		t.Error("child of evicted span should be nil")
	}
}

// TestTracerFIFOEvictionAtDefaultCapacity fills a default-capacity
// tracer past its bound and checks strict FIFO eviction: the store
// never exceeds DefaultMaxTraces, the oldest traces are gone, and the
// most recent ones all survive.
func TestTracerFIFOEvictionAtDefaultCapacity(t *testing.T) {
	tr := NewTracer(0, fakeClock(time.Microsecond))
	total := DefaultMaxTraces + 50
	for i := 0; i < total; i++ {
		tr.Start(fmt.Sprintf("t-%d", i), "w").End()
	}
	if got := tr.Len(); got != DefaultMaxTraces {
		t.Fatalf("retained = %d, want %d", got, DefaultMaxTraces)
	}
	for i := 0; i < 50; i++ {
		if _, ok := tr.Snapshot(fmt.Sprintf("t-%d", i)); ok {
			t.Fatalf("trace t-%d should have been evicted", i)
		}
	}
	for _, i := range []int{50, total / 2, total - 1} {
		if _, ok := tr.Snapshot(fmt.Sprintf("t-%d", i)); !ok {
			t.Errorf("trace t-%d missing", i)
		}
	}
}

// TestTraceIDCollisionKeepsSpansInTheirOwnTrace: two requests that
// send one X-Caladrius-Trace id each open a root under it. The second
// replaces the first, and the first request's later spans must not land
// under the second's root.
func TestTraceIDCollisionKeepsSpansInTheirOwnTrace(t *testing.T) {
	tr := NewTracer(8, fakeClock(time.Millisecond))
	first := tr.Start("client-7", "performance")
	second := tr.Start("client-7", "suggest")
	if c := first.Child("calibrate"); c != nil {
		t.Error("a replaced trace's span opened a child")
	}
	second.Child("plan").End()
	first.SetAttr("mode", "sync")
	first.End()
	second.End()
	tj, ok := tr.Snapshot("client-7")
	if !ok {
		t.Fatal("client-7 missing")
	}
	if len(tj.Spans) != 1 || tj.Spans[0].Name != "suggest" || tj.Spans[0].Attrs != nil ||
		len(tj.Spans[0].Children) != 1 || tj.Spans[0].Children[0].Name != "plan" {
		t.Errorf("client-7 = %+v, want only the second request's suggest → plan", tj.Spans)
	}
	if first.TraceID() != "client-7" || tr.Len() != 1 {
		t.Errorf("trace id %q, retained %d", first.TraceID(), tr.Len())
	}
}

func TestNilSpanSafety(t *testing.T) {
	var s *Span
	s.End()
	s.SetAttr("k", "v")
	s.StartStage("x")()
	if s.Child("c") != nil || s.TraceID() != "" {
		t.Error("nil span misbehaved")
	}
	var tr *Tracer
	if sp := tr.Start("a", "b"); sp != nil {
		t.Error("nil tracer produced a span")
	}
	if _, ok := tr.Snapshot("a"); ok {
		t.Error("nil tracer returned a trace")
	}
}

func TestContextPropagation(t *testing.T) {
	tr := NewTracer(0, fakeClock(time.Millisecond))
	ctx := context.Background()
	// No span in ctx → no-op.
	if ctx2, sp := StartSpan(ctx, "x"); sp != nil || ctx2 != ctx {
		t.Error("StartSpan without parent should be a no-op")
	}
	root := tr.Start("job-9", "root")
	ctx = ContextWithSpan(ctx, root)
	ctx, child := StartSpan(ctx, "stage")
	if child == nil || SpanFromContext(ctx) != child {
		t.Fatal("child span not propagated")
	}
	_, grand := StartSpan(ctx, "substage")
	grand.End()
	child.End()
	root.End()
	tj, _ := tr.Snapshot("job-9")
	if len(tj.Spans) != 1 || len(tj.Spans[0].Children) != 1 || len(tj.Spans[0].Children[0].Children) != 1 {
		t.Errorf("tree = %+v", tj.Spans)
	}
}
