package telemetry

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLogRingAppendSnapshot(t *testing.T) {
	r := NewLogRing(4)
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		r.Append(base.Add(time.Duration(i)*time.Second), slog.LevelInfo, fmt.Sprintf("m%d", i), "", nil)
	}
	recs := r.Snapshot()
	if len(recs) != 3 || r.Len() != 3 {
		t.Fatalf("len = %d/%d, want 3", len(recs), r.Len())
	}
	for i, rec := range recs {
		if rec.Msg != fmt.Sprintf("m%d", i) {
			t.Errorf("recs[%d].Msg = %q", i, rec.Msg)
		}
	}
}

func TestLogRingCapacityBoundKeepsTail(t *testing.T) {
	r := NewLogRing(4)
	for i := 0; i < 10; i++ {
		r.Append(time.Unix(int64(i), 0), slog.LevelInfo, fmt.Sprintf("m%d", i), "", nil)
	}
	if r.Len() != 4 || r.total != 10 {
		t.Fatalf("Len = %d, Total = %d", r.Len(), r.total)
	}
	recs := r.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("snapshot len = %d", len(recs))
	}
	// The last 4 appends survive, oldest first — no lost tail.
	for i, rec := range recs {
		want := fmt.Sprintf("m%d", 6+i)
		if rec.Msg != want {
			t.Errorf("recs[%d].Msg = %q, want %q", i, rec.Msg, want)
		}
	}
}

func TestLogRingAttrsCopied(t *testing.T) {
	r := NewLogRing(2)
	buf := []byte("k=v")
	r.Append(time.Now(), slog.LevelInfo, "m", "t-1", buf)
	buf[0] = 'X' // caller recycles its buffer; the slot copy must not change
	rec := r.Snapshot()[0]
	if rec.Attrs != "k=v" || rec.Trace != "t-1" {
		t.Fatalf("record = %+v", rec)
	}
}

// TestLogRingConcurrent exercises Append/Snapshot from many goroutines
// so `go test -race` can catch unsynchronized access, and checks that a
// writer's tail is never lost: after all writers finish, the snapshot
// is exactly the last len(slots) appends in order of append sequence.
func TestLogRingConcurrent(t *testing.T) {
	const writers, perWriter = 8, 500
	r := NewLogRing(64)
	var readers, writersWG sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() { // concurrent reader racing the writers
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, rec := range r.Snapshot() {
					if rec.Msg == "" {
						t.Error("snapshot saw empty record")
						return
					}
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				r.Append(time.Now(), slog.LevelInfo, fmt.Sprintf("w%d-%d", w, i), "", []byte("k=v"))
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	if r.total != writers*perWriter {
		t.Fatalf("Total = %d, want %d", r.total, writers*perWriter)
	}
	recs := r.Snapshot()
	if len(recs) != len(r.slots) {
		t.Fatalf("snapshot len = %d, want %d", len(recs), len(r.slots))
	}
	// Per-writer sequence numbers must be increasing within the window —
	// overwrites drop the oldest, never reorder.
	last := map[string]int{}
	for _, rec := range recs {
		var w, i int
		if _, err := fmt.Sscanf(rec.Msg, "w%d-%d", &w, &i); err != nil {
			t.Fatalf("bad message %q", rec.Msg)
		}
		key := fmt.Sprintf("w%d", w)
		if prev, ok := last[key]; ok && i <= prev {
			t.Fatalf("writer %d out of order: %d after %d", w, i, prev)
		}
		last[key] = i
	}
}

func TestLogRingHandler(t *testing.T) {
	r := NewLogRing(8)
	logger := slog.New(r.Handler(slog.LevelInfo))
	logger.Debug("dropped")
	logger.Info("request", "trace", "req-7", "status", 200, "route", "/x")
	logger.With("component", "scraper").Warn("slow scrape", "ms", 12.5)
	logger.WithGroup("job").Info("done", "id", "j-1")

	recs := r.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].Msg != "request" || recs[0].Trace != "req-7" {
		t.Errorf("recs[0] = %+v", recs[0])
	}
	if recs[0].Attrs != "status=200 route=/x" {
		t.Errorf("recs[0].Attrs = %q", recs[0].Attrs)
	}
	if recs[1].Attrs != "component=scraper ms=12.5" {
		t.Errorf("recs[1].Attrs = %q", recs[1].Attrs)
	}
	if recs[2].Attrs != "job.id=j-1" || recs[2].Trace != "" {
		t.Errorf("recs[2] = %+v", recs[2])
	}
}

func TestTeeHandlers(t *testing.T) {
	r := NewLogRing(8)
	var text bytes.Buffer
	logger := slog.New(TeeHandlers(
		slog.NewTextHandler(&text, &slog.HandlerOptions{Level: slog.LevelWarn}),
		r.Handler(slog.LevelInfo),
	))
	if !logger.Enabled(context.Background(), slog.LevelInfo) {
		t.Fatal("tee should be enabled at the lowest member level")
	}
	logger.Info("ring only", "trace", "t-9")
	logger.Warn("both")

	recs := r.Snapshot()
	if len(recs) != 2 || recs[0].Trace != "t-9" {
		t.Fatalf("ring records = %+v", recs)
	}
	out := text.String()
	if strings.Contains(out, "ring only") || !strings.Contains(out, "both") {
		t.Fatalf("text output = %q", out)
	}
}

func TestLogRingAppendNoAllocs(t *testing.T) {
	r := NewLogRing(16)
	attrs := []byte("route=/api/v1/health status=200")
	now := time.Now()
	// Warm every slot so attr buffers are sized.
	for i := 0; i < 2*len(r.slots); i++ {
		r.Append(now, slog.LevelInfo, "warm", "t-1", attrs)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Append(now, slog.LevelInfo, "steady", "t-2", attrs)
	})
	if allocs != 0 {
		t.Errorf("Append allocates %.1f/op, want 0", allocs)
	}
}
