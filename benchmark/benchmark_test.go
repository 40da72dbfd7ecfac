package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// These tests cover the benchmark's own code. They start no daemon and
// finish in well under a second.

func TestSameSeedSameSchedule(t *testing.T) {
	for _, w := range servingWorkloads {
		a := encodeSchedule(pacedSchedule(w, 7, 3*time.Second))
		b := encodeSchedule(pacedSchedule(w, 7, 3*time.Second))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different paced schedules", w.Name)
		}
		if len(a) == 0 {
			t.Errorf("%s: empty schedule", w.Name)
		}
		if c := encodeSchedule(pacedSchedule(w, 8, 3*time.Second)); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.Name)
		}
		if !bytes.Equal(encodeSchedule(closedRing(w, 7, streamClosed, 64)), encodeSchedule(closedRing(w, 7, streamClosed, 64))) {
			t.Errorf("%s: same seed gave different closed rings", w.Name)
		}
	}
	if !bytes.Equal(encodeSchedule(prefillSchedule(3)), encodeSchedule(prefillSchedule(3))) {
		t.Error("same seed gave different prefills")
	}
	// A longer paced phase extends the schedule without changing its start.
	short := pacedSchedule(servingWorkloads[0], 7, time.Second)
	long := pacedSchedule(servingWorkloads[0], 7, 2*time.Second)
	if !bytes.Equal(encodeSchedule(short), encodeSchedule(long[:len(short)])) {
		t.Error("a longer phase changed the requests of its first second")
	}
}

func TestScheduleMix(t *testing.T) {
	counts := map[string]int{}
	reqs := closedRing(servingWorkloads[0], 1, streamClosed, 20000)
	empty := 0
	for _, r := range reqs {
		counts[r.Op]++
		if r.Body == "{}" {
			empty++
		}
		if r.Op == opPlan && r.Parallelism != nil {
			t.Fatal("a suggest request carries a parallelism, which the API rejects")
		}
	}
	if share := float64(counts[opPredict]) / float64(len(reqs)); math.Abs(share-0.8) > 0.02 {
		t.Errorf("predict share %.3f, want 0.80", share)
	}
	if share := float64(empty) / float64(len(reqs)); math.Abs(share-0.2) > 0.02 {
		t.Errorf("{} share %.3f, want 0.20", share)
	}
	seen := map[string]bool{}
	for _, w := range servingWorkloads {
		for _, r := range closedRing(w, 1, streamClosed, 5000) {
			seen[r.Op] = true
		}
	}
	for _, op := range allOps {
		if !seen[op] {
			t.Errorf("no workload draws op %s", op)
		}
	}
}

func TestPercentileAndTail(t *testing.T) {
	var v []float64
	for i := 1; i <= 1000; i++ {
		v = append(v, float64(i))
	}
	if got := percentile(v, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want the 500th sample", got)
	}
	if got := percentile(v, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(v, 100); got != 1000 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("p50 of one sample = %v", got)
	}
	// The tail is the highest sample with ten samples beyond it.
	val, pct := tail(v)
	if val != 990 || pct != 99 {
		t.Errorf("tail of 1..1000 = %v at p%v, want 990 at p99", val, pct)
	}
	val, pct = tail(v[:188])
	if val != 178 || math.Abs(pct-100*178.0/188) > 1e-9 {
		t.Errorf("tail of 188 samples = %v at p%v, want 178 at p94.68", val, pct)
	}
	// Ten samples or fewer support no tail.
	if val, pct = tail(v[:10]); val != 5 || pct != 50 {
		t.Errorf("tail of 10 samples = %v at p%v, want the median", val, pct)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 4, 8, 16}); math.Abs(s-10.5/4) > 1e-12 {
		t.Errorf("spread = %v, want 2.625", s)
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (cala drius) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 731 269 0 0 20 0 9 0 12345 1000000 2500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	ticks, err := parseStatCPUTicks([]byte(stat))
	if err != nil || ticks != 1000 {
		t.Errorf("utime+stime = %d, %v; want 1000 (a command name with spaces and parentheses must not shift fields)", ticks, err)
	}
	if _, err := parseStatCPUTicks([]byte("1 (x) S 1 2")); err == nil {
		t.Error("truncated stat accepted")
	}
	status := "Name:\tcaladrius\nVmPeak:\t  900000 kB\nVmHWM:\t  104448 kB\nVmRSS:\t   90000 kB\n"
	kb, err := parseVmHWMkB([]byte(status))
	if err != nil || kb != 104448 {
		t.Errorf("VmHWM = %d, %v; want 104448", kb, err)
	}
	if _, err := parseVmHWMkB([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

// infDroppedBody reproduces what api.writeJSON sends when a value holds
// +Inf: the header is written, the encoder fails, the error is dropped.
func infDroppedBody(t *testing.T) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	rec.Header().Set("Content-Type", "application/json")
	rec.WriteHeader(http.StatusOK)
	if err := json.NewEncoder(rec).Encode(map[string]float64{"saturation_source_tpm": math.Inf(1)}); err == nil {
		t.Fatal("encoding +Inf succeeded; the finding no longer reproduces")
	}
	return rec.Code, rec.Body.Bytes()
}

const goodPredict = `{"topology":"word-count","prediction":{"source_rate_tpm":1e7,"paths":[{"path":["spout","splitter","counter"],"bottleneck":"splitter","components":[]}],"bottleneck":"splitter"},"evaluated_rate_tpm":1e7}`

func TestValidators(t *testing.T) {
	predict := &request{Op: opPredict, RateTPM: 1e7}
	ok := func(r *request, body string) error {
		return validate(&sample{req: r, status: 200, body: []byte(body)})
	}
	if err := ok(predict, goodPredict); err != nil {
		t.Fatalf("good predict rejected: %v", err)
	}
	status, body := infDroppedBody(t)
	for _, op := range allOps {
		if op == opMetrics {
			continue // text, not JSON; covered below
		}
		if err := validate(&sample{req: &request{Op: op}, status: 200, body: nil}); err == nil {
			t.Errorf("%s: empty 200 accepted", op)
		}
		if err := validate(&sample{req: &request{Op: op}, status: status, body: body}); err == nil {
			t.Errorf("%s: +Inf-dropped body accepted", op)
		}
	}
	if err := validate(&sample{req: &request{Op: opMetrics}, status: 200}); err == nil {
		t.Error("metrics: empty 200 accepted")
	}
	for name, tc := range map[string]struct {
		req  *request
		body string
	}{
		"rate differs from the request": {&request{Op: opPredict, RateTPM: 2e7}, goodPredict},
		"no bottleneck":                 {predict, strings.Replace(goodPredict, `"bottleneck":"splitter","components"`, `"bottleneck":"","components"`, 1)},
		"no paths":                      {predict, `{"prediction":{"paths":[]},"evaluated_rate_tpm":1e7}`},
		"plan parallelism below 1":      {&request{Op: opPlan}, strings.Replace(goodPredict, `"evaluated_rate_tpm"`, `"parallelism":{"splitter":0},"evaluated_rate_tpm"`, 1)},
		"plan without parallelism":      {&request{Op: opPlan}, goodPredict},
		"traffic shorter than horizon":  {&request{Op: opTraffic, Horizon: 3}, `{"results":[{"model":"prophet","predictions":[{},{}]}]}`},
		"job failed":                    {&request{Op: opTrafficJob, Horizon: 1}, `{"status":"failed","error":"boom"}`},
		"not calibrated":                {&request{Op: opCalibrate}, `{"calibrated":false}`},
		"empty panel":                   {&request{Op: opQueryRange5m}, `{"points":[]}`},
		"points out of order":           {&request{Op: opQueryRange1h}, `{"points":[{"t":"2026-01-01T00:00:10Z","v":1},{"t":"2026-01-01T00:00:00Z","v":1}]}`},
		"audit over limit":              {&request{Op: opAudit}, `{"records":[` + strings.TrimSuffix(strings.Repeat(`{"id":1},`, 51), ",") + `]}`},
		"rank entry failed":             {&request{Op: opRank}, `{"ranking":[{"model":"prophet","error":"insufficient data"}]}`},
		"truncated JSON":                {predict, goodPredict[:40]},
	} {
		if err := ok(tc.req, tc.body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := validate(&sample{req: predict, status: 429, body: []byte(`{"error":"shed"}`)}); err == nil {
		t.Error("a 429 accepted")
	}
	if err := ok(&request{Op: opTraffic, Horizon: 2}, `{"results":[{"model":"prophet","predictions":[{},{}]}]}`); err != nil {
		t.Errorf("good traffic rejected: %v", err)
	}
	if err := ok(&request{Op: opQueryRange5m}, `{"points":[{"t":"2026-01-01T00:00:00Z","v":1},{"t":"2026-01-01T00:00:10Z","v":1}]}`); err != nil {
		t.Errorf("good query_range rejected: %v", err)
	}
}

// suiteWith is a suite whose every workload reads 100 on every metric
// except the one named, with the given failure count.
func suiteWith(metricName string, value float64, failed int) suiteFile {
	f := suiteFile{Workloads: map[string]workloadSummary{}}
	for _, name := range workloadNames() {
		ws := workloadSummary{Failed: failed, EndToEnd: map[string]summary{}}
		for _, d := range endToEndMetrics {
			ws.EndToEnd[d.Name] = summary{Median: 100}
		}
		ws.EndToEnd[metricName] = summary{Median: value}
		f.Workloads[name] = ws
	}
	return f
}

func TestCompareBounds(t *testing.T) {
	var out strings.Builder
	base := suiteWith("rss_mb", 100, 0)
	for _, d := range endToEndMetrics {
		// A relative bound: worse by 0.9 of it passes, by 1.1 of it fails,
		// in the metric's own direction.
		sign := 1.0
		if d.Better == "higher" {
			sign = -1
		}
		if !compareSuites(base, suiteWith(d.Name, 100*(1+sign*d.Bound*0.9), 0), &out) {
			t.Errorf("%s inside its relative bound was rejected:\n%s", d.Name, out.String())
		}
		if compareSuites(base, suiteWith(d.Name, 100*(1+sign*d.Bound*1.1), 0), &out) {
			t.Errorf("%s beyond its relative bound passed", d.Name)
		}
		if !compareSuites(base, suiteWith(d.Name, 100*(1-sign*0.5), 0), &out) {
			t.Errorf("an improvement of %s was rejected", d.Name)
		}
	}
	// Failures are held to an absolute rule: any increase fails.
	if compareSuites(base, suiteWith("rss_mb", 100, 1), &out) {
		t.Error("one more failed operation passed")
	}
	if !compareSuites(suiteWith("rss_mb", 100, 2), suiteWith("rss_mb", 100, 2), &out) {
		t.Error("an equal failure count was rejected")
	}
	if w := worsening("higher", 100, 90); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("worsening(higher, 100, 90) = %v, want 0.1", w)
	}
	if w := worsening("lower", 100, 90); math.Abs(w+0.1) > 1e-12 {
		t.Errorf("worsening(lower, 100, 90) = %v, want -0.1", w)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := &spanRecorder{spans: []span{
		{ID: 1, Parent: 0, Name: "replay", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 50, End: 70},
		{ID: 4, Parent: 0, Name: "handler", Start: 100, End: 250},
	}}
	self := r.selfTimes()
	if got := self["replay"][0]; got != 50 {
		t.Errorf("replay self time %v, want 100 - 30 - 20", got)
	}
	if self["a"][0] != 30 || self["b"][0] != 20 || self["handler"][0] != 150 {
		t.Errorf("leaf self times %v", self)
	}
	if d := durations(r, "a"); len(d) != 1 || d[0] != 30 {
		t.Errorf("durations of a = %v, want [30]", d)
	}
}

func TestCompareCSVs(t *testing.T) {
	ref, got := t.TempDir(), t.TempDir()
	write := func(dir, name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(ref, "fig04.csv", "a,b\n1,2\n")
	write(ref, "fig05.csv", "a\n3\n")
	write(got, "fig04.csv", "a,b\n1,2\n")
	if err := compareCSVs(ref, got, nil); err == nil {
		t.Error("a missing CSV passed")
	}
	if err := compareCSVs(ref, got, []string{"fig04.csv"}); err != nil {
		t.Errorf("the one requested CSV matches, got %v", err)
	}
	write(got, "fig05.csv", "a\n3.0\n")
	if err := compareCSVs(ref, got, nil); err == nil {
		t.Error("a differing CSV passed")
	}
	write(got, "fig05.csv", "a\n3\n")
	if err := compareCSVs(ref, got, nil); err != nil {
		t.Errorf("identical directories rejected: %v", err)
	}
}

func TestHistorySpecs(t *testing.T) {
	specs := historySpecs()
	if len(specs) != historySeries {
		t.Fatalf("%d series, want %d", len(specs), historySeries)
	}
	seen := map[string]bool{}
	panels := map[string]bool{}
	for _, s := range specs {
		b, _ := json.Marshal(s.labels)
		key := s.metric + string(b)
		if seen[key] {
			t.Fatalf("series %s listed twice", key)
		}
		seen[key] = true
		panels[s.metric] = true
	}
	for _, p := range dashPanels {
		if !panels[p.metric] {
			t.Errorf("dash panel %s is not preloaded, so its query_range would be empty", p.metric)
		}
	}
	end := time.Unix(1_800_000_000, 0)
	a, b := buildHistory(5, end), buildHistory(5, end)
	if a.TotalPoints() != historySeries*historyPoints {
		t.Errorf("%d points, want %d", a.TotalPoints(), historySeries*historyPoints)
	}
	var bufA, bufB bytes.Buffer
	if err := a.WriteSnapshot(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteSnapshot(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("same seed and end time gave different histories")
	}
}

// TestManifestInStep fails when BENCHMARK.json and the code disagree,
// and checks the limits the benchmark contract puts on the file.
func TestManifestInStep(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is out of step with the code; regenerate it with `benchmark/run.sh manifest > BENCHMARK.json`")
	}
	var m benchmarkManifest
	if err := json.Unmarshal(want, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		used[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
	}
	for _, w := range m.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range m.PerLayer {
		check(d.Name, d.Unit)
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes", len(want))
	}
}
