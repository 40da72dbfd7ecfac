package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caladrius/internal/telemetry"
)

func newTestScheduler(t *testing.T, workers, depth int) *Scheduler {
	t.Helper()
	s := New(Options{Workers: workers, QueueDepth: depth})
	t.Cleanup(s.Close)
	return s
}

// Do is Submit followed by Wait.
func (s *Scheduler) Do(ctx context.Context, req Request, fn func(context.Context) (any, error)) (any, error) {
	h, err := s.Submit(ctx, req, fn)
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

func TestSubmitRunsAndReturnsResult(t *testing.T) {
	s := newTestScheduler(t, 2, 8)
	h, err := s.Submit(context.Background(), Request{Topology: "wc", Kind: "predict", Tenant: "a"},
		func(ctx context.Context) (any, error) { return 42, nil })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got, err := h.Wait(context.Background())
	if err != nil || got != 42 {
		t.Fatalf("Wait = %v, %v; want 42, nil", got, err)
	}
	if h.Coalesced() {
		t.Fatal("first submission reported coalesced")
	}
}

func TestDoPropagatesError(t *testing.T) {
	s := newTestScheduler(t, 1, 4)
	want := errors.New("boom")
	_, err := s.Do(context.Background(), Request{Topology: "wc", Kind: "predict", Tenant: "a"},
		func(ctx context.Context) (any, error) { return nil, want })
	if !errors.Is(err, want) {
		t.Fatalf("Do err = %v; want %v", err, want)
	}
}

func TestPanicBecomesError(t *testing.T) {
	s := newTestScheduler(t, 1, 4)
	_, err := s.Do(context.Background(), Request{Topology: "wc", Kind: "predict", Tenant: "a"},
		func(ctx context.Context) (any, error) { panic("kaboom") })
	if err == nil || !contains(err.Error(), "kaboom") {
		t.Fatalf("Do err = %v; want panic-wrapping error", err)
	}
	// The worker survived the panic.
	got, err := s.Do(context.Background(), Request{Topology: "wc", Kind: "predict", Tenant: "a"},
		func(ctx context.Context) (any, error) { return "ok", nil })
	if err != nil || got != "ok" {
		t.Fatalf("post-panic Do = %v, %v; want ok, nil", got, err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

// TestCoalescing verifies that concurrent identical submissions share
// exactly one execution and all observe its result.
func TestCoalescing(t *testing.T) {
	s := newTestScheduler(t, 1, 16)
	var runs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	// Block the only worker so followers arrive while the leader is
	// queued or running.
	blocker, err := s.Submit(context.Background(), Request{Topology: "block", Kind: "predict", Tenant: "z"},
		func(ctx context.Context) (any, error) { close(started); <-release; return nil, nil })
	if err != nil {
		t.Fatalf("blocker Submit: %v", err)
	}
	<-started

	req := Request{Topology: "wc", Kind: "predict", Tenant: "a", Hash: Hash64("wc", "predict", "body")}
	fn := func(ctx context.Context) (any, error) {
		runs.Add(1)
		return "shared", nil
	}
	leader, err := s.Submit(context.Background(), req, fn)
	if err != nil {
		t.Fatalf("leader Submit: %v", err)
	}
	if leader.Coalesced() {
		t.Fatal("leader reported coalesced")
	}
	const followers = 8
	var hs [followers]Handle
	for i := range hs {
		h, err := s.Submit(context.Background(), req, fn)
		if err != nil {
			t.Fatalf("follower %d Submit: %v", i, err)
		}
		if !h.Coalesced() {
			t.Fatalf("follower %d not coalesced", i)
		}
		hs[i] = h
	}
	close(release)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatalf("blocker Wait: %v", err)
	}
	got, err := leader.Wait(context.Background())
	if err != nil || got != "shared" {
		t.Fatalf("leader Wait = %v, %v", got, err)
	}
	for i, h := range hs {
		got, err := h.Wait(context.Background())
		if err != nil || got != "shared" {
			t.Fatalf("follower %d Wait = %v, %v", i, got, err)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times; want exactly 1", n)
	}
	st := s.Stats()
	if st.Coalesced != followers {
		t.Fatalf("Stats.Coalesced = %d; want %d", st.Coalesced, followers)
	}
}

// TestCoalescingZeroHashNeverCoalesces: Hash 0 requests each run.
func TestCoalescingZeroHashNeverCoalesces(t *testing.T) {
	s := newTestScheduler(t, 1, 16)
	var runs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	blocker, _ := s.Submit(context.Background(), Request{Topology: "block", Kind: "predict", Tenant: "z"},
		func(ctx context.Context) (any, error) { close(started); <-release; return nil, nil })
	<-started

	req := Request{Topology: "wc", Kind: "calibrate", Tenant: "a"} // Hash 0
	var hs []Handle
	for i := 0; i < 3; i++ {
		h, err := s.Submit(context.Background(), req, func(ctx context.Context) (any, error) {
			runs.Add(1)
			return nil, nil
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if h.Coalesced() {
			t.Fatalf("zero-hash submission %d coalesced", i)
		}
		hs = append(hs, h)
	}
	close(release)
	blocker.Wait(context.Background())
	for _, h := range hs {
		h.Wait(context.Background())
	}
	if n := runs.Load(); n != 3 {
		t.Fatalf("fn ran %d times; want 3 (no coalescing)", n)
	}
}

// TestAdmissionFairShare floods the queue from one tenant and checks
// the flooder is shed with 429 semantics while a second tenant is
// still admitted — no tenant starved below its fair share.
func TestAdmissionFairShare(t *testing.T) {
	const depth = 4
	s := newTestScheduler(t, 1, depth)
	release := make(chan struct{})
	started := make(chan struct{})
	blocker, _ := s.Submit(context.Background(), Request{Topology: "block", Kind: "predict", Tenant: "hog"},
		func(ctx context.Context) (any, error) { close(started); <-release; return nil, nil })
	<-started

	// Tenant "hog" floods: with only itself active its fair share is
	// the whole queue, so it fills depth and is then shed.
	var admitted, shed int
	var hs []Handle
	var lastShed *ErrOverloaded
	for i := 0; i < depth+6; i++ {
		h, err := s.Submit(context.Background(), Request{Topology: fmt.Sprintf("t%d", i), Kind: "predict", Tenant: "hog"},
			func(ctx context.Context) (any, error) { return nil, nil })
		if err == nil {
			admitted++
			hs = append(hs, h)
			continue
		}
		var over *ErrOverloaded
		if !errors.As(err, &over) {
			t.Fatalf("Submit %d: err = %v; want ErrOverloaded", i, err)
		}
		lastShed = over
		shed++
	}
	if shed == 0 {
		t.Fatal("flooding tenant was never shed")
	}
	if lastShed.Tenant != "hog" {
		t.Fatalf("shed tenant = %q; want hog", lastShed.Tenant)
	}
	if lastShed.RetryAfter < time.Second || lastShed.RetryAfter > time.Minute {
		t.Fatalf("RetryAfter = %s; want within [1s, 60s]", lastShed.RetryAfter)
	}

	// A newcomer tenant is below its fair share and must be admitted
	// even though the queue is at depth.
	h, err := s.Submit(context.Background(), Request{Topology: "fresh", Kind: "predict", Tenant: "newcomer"},
		func(ctx context.Context) (any, error) { return "ran", nil })
	if err != nil {
		t.Fatalf("newcomer shed despite being under fair share: %v", err)
	}
	hs = append(hs, h)

	st := s.Stats()
	if st.Sheds != uint64(shed) {
		t.Fatalf("Stats.Sheds = %d; want %d", st.Sheds, shed)
	}
	close(release)
	blocker.Wait(context.Background())
	for _, h := range hs {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatalf("admitted run failed: %v", err)
		}
	}
}

// TestPriorityOrdering: with one worker blocked, a High item submitted
// after Low/Normal items still runs first.
func TestPriorityOrdering(t *testing.T) {
	s := newTestScheduler(t, 1, 16)
	release := make(chan struct{})
	started := make(chan struct{})
	blocker, _ := s.Submit(context.Background(), Request{Topology: "block", Kind: "predict", Tenant: "z"},
		func(ctx context.Context) (any, error) { close(started); <-release; return nil, nil })
	<-started

	var mu sync.Mutex
	var order []string
	mark := func(name string) func(context.Context) (any, error) {
		return func(ctx context.Context) (any, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil, nil
		}
	}
	h1, _ := s.Submit(context.Background(), Request{Topology: "a", Kind: "rank", Tenant: "t", Priority: Low}, mark("low"))
	h2, _ := s.Submit(context.Background(), Request{Topology: "b", Kind: "predict", Tenant: "t", Priority: Normal}, mark("normal"))
	h3, _ := s.Submit(context.Background(), Request{Topology: "c", Kind: "predict", Tenant: "t", Priority: High}, mark("high"))
	close(release)
	blocker.Wait(context.Background())
	for _, h := range []Handle{h1, h2, h3} {
		h.Wait(context.Background())
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"high", "normal", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v; want %v", order, want)
		}
	}
}

// TestWaitCancellationDoesNotAbortRun: a cancelled waiter gets
// ctx.Err, but the run still completes for other waiters.
func TestWaitCancellationDoesNotAbortRun(t *testing.T) {
	s := newTestScheduler(t, 1, 8)
	release := make(chan struct{})
	started := make(chan struct{})
	req := Request{Topology: "wc", Kind: "predict", Tenant: "a", Hash: Hash64("x")}
	leader, err := s.Submit(context.Background(), req, func(ctx context.Context) (any, error) {
		close(started)
		<-release
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return "done", nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	follower, err := s.Submit(context.Background(), req, func(ctx context.Context) (any, error) { return nil, nil })
	if err != nil || !follower.Coalesced() {
		t.Fatalf("follower Submit = coalesced %v, %v", follower.Coalesced(), err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := leader.Wait(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Wait err = %v; want context.Canceled", err)
	}
	close(release)
	got, err := follower.Wait(context.Background())
	if err != nil || got != "done" {
		t.Fatalf("follower Wait = %v, %v; want done (run not poisoned by cancelled waiter)", got, err)
	}
}

func TestOnDoneAfterCompletionRunsSynchronously(t *testing.T) {
	s := newTestScheduler(t, 1, 4)
	h, _ := s.Submit(context.Background(), Request{Topology: "wc", Kind: "predict", Tenant: "a"},
		func(ctx context.Context) (any, error) { return 7, nil })
	h.Wait(context.Background())
	var got any
	h.OnDone(func(result any, err error) { got = result })
	if got != 7 {
		t.Fatalf("OnDone after completion saw %v; want 7", got)
	}
}

func TestOnDoneBeforeCompletion(t *testing.T) {
	s := newTestScheduler(t, 1, 4)
	release := make(chan struct{})
	started := make(chan struct{})
	h, _ := s.Submit(context.Background(), Request{Topology: "wc", Kind: "predict", Tenant: "a"},
		func(ctx context.Context) (any, error) { close(started); <-release; return "later", nil })
	<-started
	done := make(chan any, 1)
	h.OnDone(func(result any, err error) { done <- result })
	close(release)
	select {
	case got := <-done:
		if got != "later" {
			t.Fatalf("OnDone saw %v; want later", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnDone callback never fired")
	}
}

func TestCloseFailsQueuedAndRejectsNew(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 8})
	release := make(chan struct{})
	started := make(chan struct{})
	blocker, _ := s.Submit(context.Background(), Request{Topology: "block", Kind: "predict", Tenant: "z"},
		func(ctx context.Context) (any, error) { close(started); <-release; return nil, nil })
	<-started
	queued, _ := s.Submit(context.Background(), Request{Topology: "q", Kind: "predict", Tenant: "a"},
		func(ctx context.Context) (any, error) { return nil, nil })
	closeDone := make(chan struct{})
	go func() {
		s.Close()
		close(closeDone)
	}()
	// Close drains the queue — completing queued items with ErrClosed —
	// before it waits for in-flight work, so this Wait returning is the
	// deterministic signal that Close has started; only then release
	// the blocker. No timing assumption anywhere.
	if _, err := queued.Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued Wait err = %v; want ErrClosed", err)
	}
	close(release)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatalf("in-flight run should finish on Close: %v", err)
	}
	<-closeDone
	if _, err := s.Submit(context.Background(), Request{Topology: "x", Kind: "predict", Tenant: "a"}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Submit err = %v; want ErrClosed", err)
	}
}

// TestSchedulerConcurrentChurn hammers Submit/Wait from many
// goroutines across tenants and kinds; meaningful under -race.
func TestSchedulerConcurrentChurn(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Workers: 4, QueueDepth: 32, Registry: reg})
	defer s.Close()
	var wg sync.WaitGroup
	var ran atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				req := Request{
					Topology: fmt.Sprintf("topo%d", i%5),
					Kind:     "predict",
					Tenant:   fmt.Sprintf("tenant%d", g%3),
					Hash:     Hash64(fmt.Sprintf("%d", i%7)),
					Priority: Priority(i % int(numPriorities)),
				}
				h, err := s.Submit(context.Background(), req, func(ctx context.Context) (any, error) {
					ran.Add(1)
					return nil, nil
				})
				if err != nil {
					var over *ErrOverloaded
					if !errors.As(err, &over) {
						t.Errorf("Submit: %v", err)
					}
					continue
				}
				if _, err := h.Wait(context.Background()); err != nil {
					t.Errorf("Wait: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Runs == 0 || st.Runs != uint64(ran.Load()) {
		t.Fatalf("Stats.Runs = %d; fn ran %d times", st.Runs, ran.Load())
	}
	if st.Queued != 0 || st.Busy != 0 || st.ActiveTenants != 0 {
		t.Fatalf("scheduler not drained: %+v", st)
	}
}

// TestShedTenantCardinalityCap: hostile tenants minting fresh names
// cannot grow the shed counter set past the cap.
func TestShedTenantCardinalityCap(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Workers: 1, QueueDepth: 1, Registry: reg})
	defer s.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	s.Submit(context.Background(), Request{Topology: "block", Kind: "predict", Tenant: "z"},
		func(ctx context.Context) (any, error) { close(started); <-release; return nil, nil })
	<-started
	// Fill the queue so every subsequent over-share tenant is a
	// candidate for shedding once it has an item queued.
	s.Submit(context.Background(), Request{Topology: "fill", Kind: "predict", Tenant: "z"},
		func(ctx context.Context) (any, error) { return nil, nil })
	for i := 0; i < 3*shedTenantCap; i++ {
		tenant := fmt.Sprintf("mint%04d", i)
		// First submission is admitted (fair share ≥ 1); the second
		// from the same tenant at depth is shed and labelled.
		s.Submit(context.Background(), Request{Topology: "a", Kind: "predict", Tenant: tenant},
			func(ctx context.Context) (any, error) { return nil, nil })
		s.Submit(context.Background(), Request{Topology: "b", Kind: "predict", Tenant: tenant},
			func(ctx context.Context) (any, error) { return nil, nil })
	}
	s.mu.Lock()
	distinct := len(s.shedByT)
	s.mu.Unlock()
	if distinct > shedTenantCap+1 { // +1 for "other"
		t.Fatalf("shed counter cardinality = %d; cap is %d", distinct, shedTenantCap)
	}
	close(release)
}

func TestHash64(t *testing.T) {
	if Hash64("ab", "c") == Hash64("a", "bc") {
		t.Fatal("Hash64 must separate parts")
	}
	if Hash64("x") == 0 || Hash64() == 0 {
		t.Fatal("Hash64 must never return the reserved 0")
	}
	if Hash64("same", "input") != Hash64("same", "input") {
		t.Fatal("Hash64 must be deterministic")
	}
}
