package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"caladrius/internal/api"
	"caladrius/internal/profiler"
)

// The profile command reads the continuous profiler's surface: a
// status summary, hot-function tables, and baseline regression diffs.
// It degrades gracefully (clear message, exit 0) against daemons
// started with -profile-interval 0, where /api/v1/profiles 404s.

const profileDisabledNotice = "continuous profiler disabled on server (start caladrius with -profile-interval > 0)"

// profileRequest is client.request for the profiler routes: a 404 means
// the profiler is off, which prints the notice and reports ok=false.
func profileRequest(c *client, method, path string, v any) (ok bool, err error) {
	ok, err = c.request(method, path, nil, v)
	if err == nil && !ok {
		fmt.Println(profileDisabledNotice)
	}
	return ok, err
}

func profileCmd(c *client, args []string) error {
	sub := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub = args[0]
		args = args[1:]
	}
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	kind := fs.String("kind", "cpu", "profile kind: cpu|heap|goroutine|mutex")
	n := fs.Int("n", 0, "rows to list; 0 = server default")
	raw := fs.Bool("raw", false, "dump the raw JSON payload instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v := url.Values{"kind": {*kind}}
	if *n > 0 {
		v.Set("n", strconv.Itoa(*n))
	}
	switch sub {
	case "":
		return profileStatusCmd(c, *raw)
	case "top":
		return profileTopCmd(c, v, *raw)
	case "diff":
		return profileDiffCmd(c, v, *raw)
	case "baseline":
		return profileBaselineCmd(c)
	default:
		return fmt.Errorf("usage: calctl profile [top|diff|baseline] [-kind cpu|heap|goroutine|mutex] [-n N] [-raw]")
	}
}

func profileStatusCmd(c *client, raw bool) error {
	if raw {
		return c.getJSON("/api/v1/profiles")
	}
	var st profiler.Status
	if ok, err := profileRequest(c, http.MethodGet, "/api/v1/profiles", &st); !ok {
		return err
	}
	fmt.Printf("profiler: interval %s, cpu window %s, epoch %s, %d/%d windows retained, duty %.2f%%\n",
		st.Interval, st.CPUWindow, st.Epoch, st.WindowsRetained, st.WindowCap, st.LastDuty*100)
	if st.Baseline != nil {
		origin := "explicit"
		if st.Baseline.Auto {
			origin = "auto"
		}
		fmt.Printf("baseline: %s, created %s, %d functions\n",
			origin, st.Baseline.CreatedAt.Format(time.RFC3339), st.Baseline.Funcs)
	} else {
		fmt.Println("baseline: none yet (first epoch window still filling)")
	}
	kinds := make([]profiler.Kind, 0, len(st.Captures))
	for k := range st.Captures {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	fmt.Printf("%-10s %-10s %-14s %s\n", "kind", "captures", "samples", "top_regression")
	for _, k := range kinds {
		fmt.Printf("%-10s %-10d %-14d %+.4f\n", k, st.Captures[k], st.Samples[k], st.TopRegression[k])
	}
	if st.CaptureErrors > 0 {
		fmt.Printf("capture errors: %d", st.CaptureErrors)
		for k, e := range st.LastErrors {
			fmt.Printf("  [%s: %s]", k, e)
		}
		fmt.Println()
	}
	return nil
}

func profileTopCmd(c *client, v url.Values, raw bool) error {
	path := "/api/v1/profiles/top?" + v.Encode()
	if raw {
		return c.getJSON(path)
	}
	var top api.ProfileTopResponse
	if ok, err := profileRequest(c, http.MethodGet, path, &top); !ok {
		return err
	}
	fmt.Printf("top functions by flat %s (%s profile, %d samples over the diff window)\n",
		orDefault(top.Unit, "value"), top.Kind, top.Samples)
	if len(top.Functions) == 0 {
		fmt.Println("no samples folded yet")
		return nil
	}
	fmt.Printf("%-12s %-8s %-12s %-8s function\n", "flat", "flat%", "cum", "cum%")
	for _, f := range top.Functions {
		fmt.Printf("%-12d %-8s %-12d %-8s %s\n",
			f.Flat, pctOf(f.Flat, top.Total), f.Cum, pctOf(f.Cum, top.Total), f.Function)
	}
	return nil
}

func profileDiffCmd(c *client, v url.Values, raw bool) error {
	path := "/api/v1/profiles/diff?" + v.Encode()
	if raw {
		return c.getJSON(path)
	}
	var resp api.ProfileDiffResponse
	if ok, err := profileRequest(c, http.MethodGet, path, &resp); !ok {
		return err
	}
	if resp.Baseline == nil || resp.Diff == nil {
		fmt.Println("no baseline yet (first epoch window still filling)")
		return nil
	}
	origin := "explicit"
	if resp.Baseline.Auto {
		origin = "auto"
	}
	fmt.Printf("regression vs %s baseline of %s (%s profile)\n",
		origin, resp.Baseline.CreatedAt.Format(time.RFC3339), resp.Diff.Kind)
	if resp.Diff.Guarded {
		fmt.Printf("diff guarded: only %d samples in the current window, deltas suppressed\n", resp.Diff.Samples)
		return nil
	}
	if len(resp.Diff.Entries) == 0 {
		fmt.Println("no regressing functions")
		return nil
	}
	fmt.Printf("%-10s %-10s %-10s function\n", "Δflat%", "base%", "cur%")
	for _, e := range resp.Diff.Entries {
		fmt.Printf("%-10s %-10s %-10s %s\n",
			fmt.Sprintf("%+.2f", e.DeltaFlat*100), fmt.Sprintf("%.2f", e.BaseFlat*100),
			fmt.Sprintf("%.2f", e.CurFlat*100), e.Function)
	}
	return nil
}

// profileBaselineCmd re-baselines over POST; the disabled daemon's 404
// degrades to the same notice the read paths print.
func profileBaselineCmd(c *client) error {
	var meta profiler.BaselineMeta
	if ok, err := profileRequest(c, http.MethodPost, "/api/v1/profiles/baseline", &meta); !ok {
		return err
	}
	fmt.Printf("baseline reset: created %s, %d functions\n",
		meta.CreatedAt.Format(time.RFC3339), meta.Funcs)
	return nil
}

func pctOf(v, total int64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", float64(v)/float64(total)*100)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
