//go:build !race

// The race detector changes what the request path allocates (sync.Pool
// drops a share of what is put back, and instrumentation allocates), so
// an allocation count is a budget only in a normal build.

package daemon

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// warmPredictAllocs is what one warm sync performance request costs in
// heap allocations through Handler(), from building the request to the
// recorded response: routing, middleware, access log, usage, body
// decode, the request hash, the scheduler, the calibration-cache hit,
// the model, the audit record, spans and the JSON encode. It is the
// measured count (go1.24, linux/amd64). A change that spends
// allocations on this path raises it here, in review; a change that
// saves some lowers it.
const warmPredictAllocs = 116

// TestWarmPredictAllocationBudget pins warmPredictAllocs on a daemon
// with no Run loops, so nothing but the request allocates while it is
// counted.
func TestWarmPredictAllocationBudget(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h := d.Handler()
	predict := func() {
		req := httptest.NewRequest("POST", predictPath, strings.NewReader(`{"parallelism": {"splitter": 4}, "source_rate_tpm": 30000000}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("predict = %d: %s", rec.Code, rec.Body)
		}
	}
	// Warm up past the calibration-cache miss, the first interning of
	// every per-principal and per-route instrument, and the request ids
	// below 100, which strconv formats without allocating.
	for i := 0; i < 200; i++ {
		predict()
	}
	if got := testing.AllocsPerRun(200, predict); got != warmPredictAllocs {
		t.Errorf("warm predict allocates %v per request, budget %d", got, warmPredictAllocs)
	}
}
