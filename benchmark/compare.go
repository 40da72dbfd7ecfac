package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// summary is one end-to-end metric over a suite's repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 − q1) / median
	Range  float64   `json:"range"`  // (max − min) / median
	Values []float64 `json:"values"`
}

func summarise(unit string, values []float64) summary {
	s := summary{Unit: unit, Values: values, Median: median(values)}
	s.Q1, _, s.Q3 = quartiles(values)
	s.Spread = spread(values)
	if sorted := sortedCopy(values); s.Median != 0 {
		s.Range = (sorted[len(sorted)-1] - sorted[0]) / s.Median
	}
	return s
}

// workloadSummary is what the suite keeps of one workload.
type workloadSummary struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]metric  `json:"per_layer"`
	Notes     []string           `json:"notes,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

// suiteFile is the content of out/latest.json.
type suiteFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Repeat    int                        `json:"repeat"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

// runSuite runs every workload: repeat untraced runs (seeds seed,
// seed+1, …) and one traced run. It prints every metric by name and
// unit and writes latest.json and trace.json.
func runSuite(seed int64, seconds, repeat int) error {
	file := suiteFile{Seed: seed, Seconds: seconds, Repeat: repeat, Workloads: map[string]workloadSummary{}}
	correct := true
	var lastLayers *layerResult
	for _, name := range workloadNames() {
		ws := workloadSummary{EndToEnd: map[string]summary{}}
		values := map[string][]float64{}
		keep := func(rep runReport) {
			var text strings.Builder
			rep.print(&text)
			fmt.Print(text.String())
			ws.Attempted += rep.Result.Attempted
			ws.Failed += rep.Result.Failed
			ws.Failures = append(ws.Failures, rep.Failures...)
			correct = correct && rep.Result.Correct
		}
		for i := 0; i < repeat; i++ {
			rep, _, err := runOne(name, seed+int64(i), seconds, false)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			keep(rep)
			ws.Notes = rep.Notes
			for metricName, m := range rep.Result.Metrics {
				values[metricName] = append(values[metricName], m.Value)
			}
		}
		for _, d := range endToEndMetrics {
			ws.EndToEnd[d.Name] = summarise(d.Unit, values[d.Name])
		}
		rep, layers, err := runOne(name, seed, seconds, true)
		if err != nil {
			return fmt.Errorf("%s traced: %w", name, err)
		}
		keep(rep)
		ws.PerLayer = rep.Result.Metrics
		ws.Notes = append(ws.Notes, rep.Notes...)
		lastLayers = layers
		file.Workloads[name] = ws
	}
	if repeat > 1 {
		fmt.Printf("== repeatability over %d runs\n", repeat)
		for _, name := range workloadNames() {
			for _, d := range endToEndMetrics {
				s := file.Workloads[name].EndToEnd[d.Name]
				fmt.Printf("%-22s %-20s median %12.6g %-5s q1 %12.6g q3 %12.6g spread %.4f range %.4f (bound %.2f)\n",
					name, d.Name, s.Median, s.Unit, s.Q1, s.Q3, s.Spread, s.Range, d.Bound)
			}
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(latestFile, data, 0o644); err != nil {
		return err
	}
	if err := writeTrace(traceFile, map[string]*spanRecorder{"hot": lastLayers.hot, "cold": lastLayers.cold}); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", latestFile, traceFile)
	if !correct {
		return errIncorrect
	}
	return nil
}

// worsening is how far b is worse than a, as a share of a: positive
// when the metric moved against its better direction.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if better == "higher" {
		d = -d
	}
	return d
}

// compareSuites prints, for every workload and end-to-end metric, how
// far b's median is worse than a's against the metric's relative
// bound. Failed operations are held to an absolute rule: b may not
// fail more than a. It reports whether b stayed within every bound.
func compareSuites(a, b suiteFile, w io.Writer) bool {
	ok := true
	for _, name := range workloadNames() {
		wa, inA := a.Workloads[name]
		wb, inB := b.Workloads[name]
		if !inA || !inB {
			fmt.Fprintf(w, "%-22s missing from one file\n", name)
			ok = false
			continue
		}
		for _, d := range endToEndMetrics {
			ma, mb := wa.EndToEnd[d.Name].Median, wb.EndToEnd[d.Name].Median
			worse := worsening(d.Better, ma, mb)
			verdict := "ok"
			if worse > d.Bound {
				verdict, ok = "REGRESSION", false
			}
			fmt.Fprintf(w, "%-22s %-20s %12.6g -> %12.6g %-5s worse by %+.4f (bound %.2f) %s\n",
				name, d.Name, ma, mb, d.Unit, worse, d.Bound, verdict)
		}
		verdict := "ok"
		if wb.Failed > wa.Failed {
			verdict, ok = "REGRESSION", false
		}
		fmt.Fprintf(w, "%-22s %-20s %12d -> %12d %-5s (any increase fails) %s\n", name, "failed", wa.Failed, wb.Failed, "count", verdict)
	}
	return ok
}

func readSuite(path string) (suiteFile, error) {
	var f suiteFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readSuite(pathA)
	if err != nil {
		return err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return err
	}
	if !compareSuites(a, b, w) {
		return errors.New("compare: outside the bounds")
	}
	return nil
}
