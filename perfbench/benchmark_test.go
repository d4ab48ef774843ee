package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// listedMetric is one metric entry of BENCHMARK.json.
type listedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// BENCHMARK.json must list exactly the workloads, metrics and units the
// code reports, in the same order.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	var bf struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []listedMetric `json:"end_to_end"`
		PerLayer []listedMetric `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bf)

	var workloads []string
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
	}
	if want := []string{"transform", "mission", "serve"}; !slices.Equal(workloads, want) {
		t.Errorf("workloads %v, want %v", workloads, want)
	}
	for _, tc := range []struct {
		section string
		file    []listedMetric
		code    []metricName
	}{
		{"end_to_end", bf.EndToEnd, endToEnd},
		{"per_layer", bf.PerLayer, perLayer},
	} {
		if len(tc.file) != len(tc.code) {
			t.Errorf("%s lists %d metrics, code reports %d", tc.section, len(tc.file), len(tc.code))
			continue
		}
		for i, m := range tc.file {
			if m.Name != tc.code[i].name || m.Unit != tc.code[i].unit {
				t.Errorf("%s[%d] = %s (%s), code reports %s (%s)", tc.section, i, m.Name, m.Unit, tc.code[i].name, tc.code[i].unit)
			}
		}
	}
}

// Every per-layer metric has a prediction, and every prediction names a
// reported metric and a known workload.
func TestPredictionsCoverPerLayerMetrics(t *testing.T) {
	var p struct {
		EndToEnd map[string]map[string]string `json:"end_to_end"`
		PerLayer []struct {
			Metrics   []string `json:"metrics"`
			Workloads []string `json:"workloads"`
		} `json:"per_layer"`
	}
	readJSON(t, "predictions.json", &p)
	seen := map[string]bool{}
	for _, row := range p.PerLayer {
		for _, m := range row.Metrics {
			if !slices.ContainsFunc(perLayer, func(n metricName) bool { return n.name == m }) {
				t.Errorf("prediction for unknown metric %q", m)
			}
			seen[m] = true
		}
		for _, w := range row.Workloads {
			if w != "transform" && w != "mission" && w != "serve" {
				t.Errorf("prediction names unknown workload %q", w)
			}
		}
	}
	for _, m := range perLayer {
		if !seen[m.name] {
			t.Errorf("per-layer metric %s has no prediction", m.name)
		}
	}
	var got, want []string
	for name := range p.EndToEnd {
		got = append(got, name)
	}
	for _, m := range endToEnd {
		want = append(want, m.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("predictions define end-to-end metrics %v, code reports %v", got, want)
	}
}
