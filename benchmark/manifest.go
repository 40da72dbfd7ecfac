package main

import (
	"bytes"
	"encoding/json"
)

// benchmarkManifest is the content of BENCHMARK.json at the repository
// root. `benchmark manifest` prints it, and a test fails when the
// committed file and this code disagree.
type benchmarkManifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadInfo `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []layerDef     `json:"per_layer"`
}

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// layerDef is a metricDef without a bound.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func manifestJSON() ([]byte, error) {
	m := benchmarkManifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSecs,
		EndToEnd:   endToEndMetrics,
	}
	for _, w := range servingWorkloads {
		m.Workloads = append(m.Workloads, workloadInfo{w.Name, w.Why})
	}
	m.Workloads = append(m.Workloads, workloadInfo{figuresWorkload, figuresWhy})
	for _, d := range perLayerMetrics() {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
