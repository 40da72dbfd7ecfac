// Command calctl is the CLI client for a running caladrius service.
//
// Usage:
//
//	calctl [-server http://localhost:8642] <command> [args]
//
// Commands:
//
//	health                               service liveness
//	models                               registered traffic models
//	traffic <topology> [flags]           request a traffic forecast
//	perf <topology> [flags]              request a performance prediction
//	suggest <topology> [flags]           ask the planner for minimal safe parallelisms
//	model <topology>                     show the calibrated model parameters
//	graph <topology>                     topology graph analyses
//	query <topology> [-graph X] <gremlin>  run a Gremlin-style graph query
//	job <id>                             poll an asynchronous job
//	metrics [-top N] [-raw]              service telemetry with a latency table
//	trace <id>                           render a job or request span tree
//	dash [flags]                         live terminal dashboard from the history endpoints
//	accuracy [flags]                     model accuracy summary from the prediction audit ledger
//	incidents [list|show <id>|capture]   browse incident flight-recorder bundles
//	usage [flags]                        top (tenant, topology) principals by resource use
//	profile [top|diff|baseline] [flags]  continuous-profiler hot functions and baseline diffs
//
// traffic flags:  -source-minutes N -horizon-minutes N -model NAME -sync
// perf flags:     -rate TPM -p comp=N[,comp=N...] -forecast -sync
// dash flags:     -interval 2s -window 5m -step 10s -iterations N -no-clear -width 60
// accuracy flags: -topology NAME -model predict|plan -tenant NAME -limit N -raw
// usage flags:    -by requests|errors|wall|cpu|allocs|runs -n N -raw
// profile flags:  -kind cpu|heap|goroutine|mutex -n N -raw
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"caladrius/internal/api"
	"caladrius/internal/instrument"
	"caladrius/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "calctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("calctl", flag.ContinueOnError)
	server := global.String("server", "http://localhost:8642", "caladrius service base URL")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing command (health|models|traffic|perf|suggest|model|graph|query|job|metrics|trace|dash|accuracy|incidents|usage|profile)")
	}
	c := &client{base: strings.TrimRight(*server, "/"), http: &http.Client{Timeout: 60 * time.Second}}
	switch rest[0] {
	case "health":
		return c.getJSON("/api/v1/health")
	case "models":
		return c.getJSON("/api/v1/models/traffic")
	case "traffic":
		return trafficCmd(c, rest[1:])
	case "perf":
		return perfCmd(c, rest[1:])
	case "suggest":
		return suggestCmd(c, rest[1:])
	case "model":
		if len(rest) != 2 {
			return fmt.Errorf("usage: calctl model <topology>")
		}
		return c.getJSON("/api/v1/model/topology/" + rest[1] + "/model")
	case "graph":
		if len(rest) != 2 {
			return fmt.Errorf("usage: calctl graph <topology>")
		}
		return c.getJSON("/api/v1/model/topology/" + rest[1] + "/graph")
	case "query":
		return queryCmd(c, rest[1:])
	case "job":
		if len(rest) != 2 {
			return fmt.Errorf("usage: calctl job <id>")
		}
		return c.getJSON("/api/v1/jobs/" + rest[1])
	case "metrics":
		return metricsCmd(c, rest[1:])
	case "trace":
		if len(rest) != 2 {
			return fmt.Errorf("usage: calctl trace <job-id>")
		}
		return traceCmd(c, rest[1])
	case "dash":
		return dashCmd(c, rest[1:])
	case "accuracy":
		return accuracyCmd(c, rest[1:])
	case "incidents":
		return incidentsCmd(c, rest[1:])
	case "usage":
		return usageCmd(c, rest[1:])
	case "profile":
		return profileCmd(c, rest[1:])
	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
}

type client struct {
	base string
	http *http.Client
}

func (c *client) getJSON(path string) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return render(resp)
}

func (c *client) postJSON(path string, body any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return render(resp)
}

// render pretty-prints the JSON response and fails on error statuses.
func render(resp *http.Response) error {
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if json.Indent(&buf, data, "", "  ") == nil {
		data = buf.Bytes()
	}
	fmt.Println(string(data))
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	return nil
}

func trafficCmd(c *client, args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("usage: calctl traffic <topology> [flags]")
	}
	topo := args[0]
	fs := flag.NewFlagSet("traffic", flag.ContinueOnError)
	sourceMinutes := fs.Int("source-minutes", 0, "history window to fit on")
	horizonMinutes := fs.Int("horizon-minutes", 0, "forecast horizon; 0 = server default")
	model := fs.String("model", "", "restrict to one model")
	sync := fs.Bool("sync", true, "run synchronously")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	body := api.TrafficRequest{SourceMinutes: *sourceMinutes, HorizonMinutes: *horizonMinutes}
	if *model != "" {
		body.Models = []string{*model}
	}
	return c.postJSON("/api/v1/model/traffic/"+topo+syncSuffix(*sync), body)
}

func perfCmd(c *client, args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("usage: calctl perf <topology> [flags]")
	}
	topo := args[0]
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	rate := fs.Float64("rate", 0, "source rate to evaluate (tuples/minute); 0 = latest observed")
	pFlag := fs.String("p", "", "parallelism overrides, e.g. splitter=4,counter=6")
	useForecast := fs.Bool("forecast", false, "evaluate at the forecast peak instead of -rate")
	horizonMinutes := fs.Int("horizon-minutes", 0, "forecast horizon when -forecast is set; 0 = server default")
	sync := fs.Bool("sync", true, "run synchronously")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	body := api.PerformanceRequest{SourceRateTPM: *rate}
	if *useForecast {
		body.UseForecast, body.HorizonMinutes = true, *horizonMinutes
	}
	if *pFlag != "" {
		body.Parallelism = map[string]int{}
		for _, kv := range strings.Split(*pFlag, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad parallelism %q, want comp=N", kv)
			}
			n, err := strconv.Atoi(parts[1])
			if err != nil {
				return fmt.Errorf("bad parallelism %q: %v", kv, err)
			}
			body.Parallelism[parts[0]] = n
		}
	}
	return c.postJSON("/api/v1/model/topology/"+topo+"/performance"+syncSuffix(*sync), body)
}

func suggestCmd(c *client, args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("usage: calctl suggest <topology> [flags]")
	}
	topo := args[0]
	fs := flag.NewFlagSet("suggest", flag.ContinueOnError)
	rate := fs.Float64("rate", 0, "source rate to plan for (tuples/minute); 0 = latest observed")
	headroom := fs.Float64("headroom", 0, "capacity margin; 0 = server default")
	sync := fs.Bool("sync", true, "run synchronously")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	return c.postJSON("/api/v1/model/topology/"+topo+"/suggest"+syncSuffix(*sync),
		api.SuggestRequest{SourceRateTPM: *rate, Headroom: *headroom})
}

func queryCmd(c *client, args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("usage: calctl query <topology> [-graph logical|physical] <gremlin>")
	}
	topo := args[0]
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	graphKind := fs.String("graph", "physical", "graph to query: logical or physical")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: calctl query <topology> [-graph logical|physical] <gremlin>")
	}
	return c.postJSON("/api/v1/model/topology/"+topo+"/query?sync=true",
		api.GraphQueryRequest{Query: fs.Arg(0), Graph: *graphKind})
}

func syncSuffix(sync bool) string {
	if sync {
		return "?sync=true"
	}
	return ""
}

// getDecode fetches path and decodes the JSON response into v,
// failing on error statuses.
func (c *client) getDecode(path string, v any) error {
	found, err := c.request(http.MethodGet, path, nil, v)
	if err == nil && !found {
		return fmt.Errorf("server returned 404 Not Found for %s", path)
	}
	return err
}

// request sends one request and decodes the JSON response into v,
// failing on error statuses except 404. A 404 reports found=false with
// no error: the two opt-in server features (the incident recorder, the
// continuous profiler) answer it when off, and callers degrade to a
// notice instead of failing.
func (c *client) request(method, path string, body io.Reader, v any) (found bool, err error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	if resp.StatusCode == http.StatusNotFound {
		return false, nil
	}
	if resp.StatusCode >= 400 {
		return false, fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return true, json.Unmarshal(data, v)
}

func metricsCmd(c *client, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	top := fs.Int("top", 10, "histogram rows to show in the latency table")
	raw := fs.Bool("raw", false, "dump the full JSON snapshot instead of the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *raw {
		return c.getJSON("/metrics?format=json")
	}
	var metrics []instrument.MetricJSON
	if err := c.getDecode("/metrics?format=json", &metrics); err != nil {
		return err
	}
	type histRow struct {
		name   string
		labels string
		count  uint64
		meanMs float64
		p95Ms  float64
	}
	var rows []histRow
	for _, m := range metrics {
		switch m.Type {
		case "histogram":
			for _, s := range m.Series {
				if s.Count == nil || *s.Count == 0 {
					continue
				}
				r := histRow{name: m.Name, labels: labelString(s.Labels), count: *s.Count}
				if s.Sum != nil {
					r.meanMs = *s.Sum / float64(*s.Count) * 1000
				}
				r.p95Ms = bucketQuantile(s.Buckets, 0.95) * 1000
				rows = append(rows, r)
			}
		default:
			for _, s := range m.Series {
				if s.Value != nil {
					fmt.Printf("%s%s  %g\n", m.Name, labelString(s.Labels), *s.Value)
				}
			}
		}
	}
	if len(rows) == 0 {
		return nil
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].meanMs != rows[j].meanMs {
			return rows[i].meanMs > rows[j].meanMs
		}
		return rows[i].name+rows[i].labels < rows[j].name+rows[j].labels
	})
	if len(rows) > *top {
		rows = rows[:*top]
	}
	fmt.Printf("\n%-8s %-10s %-10s histogram\n", "count", "mean_ms", "p95_ms")
	for _, r := range rows {
		fmt.Printf("%-8d %-10.3f %-10.3f %s%s\n", r.count, r.meanMs, r.p95Ms, r.name, r.labels)
	}
	return nil
}

// bucketQuantile adapts the JSON buckets of a histogram series to
// telemetry.EstimateQuantile, which owns the interpolation and guards.
func bucketQuantile(buckets []instrument.BucketJSON, q float64) float64 {
	bounds, cum := make([]float64, len(buckets)), make([]float64, len(buckets))
	for i, b := range buckets {
		bounds[i], cum[i] = b.LE, float64(b.Count)
	}
	return telemetry.EstimateQuantile(bounds, cum, q)
}

func labelString(labels instrument.Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func traceCmd(c *client, id string) error {
	var trace telemetry.TraceJSON
	if err := c.getDecode("/api/v1/jobs/"+id+"/trace", &trace); err != nil {
		return err
	}
	fmt.Println("trace", trace.TraceID)
	for _, s := range trace.Spans {
		printSpan(s, 0)
	}
	return nil
}

func printSpan(s telemetry.SpanJSON, depth int) {
	state := ""
	if s.InProgress {
		state = "  (in progress)"
	}
	attrs := ""
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + s.Attrs[k]
		}
		attrs = "  [" + strings.Join(parts, " ") + "]"
	}
	fmt.Printf("%s%s  %.3fms%s%s\n", strings.Repeat("  ", depth), s.Name, s.DurationMs, attrs, state)
	for _, child := range s.Children {
		printSpan(child, depth+1)
	}
}
