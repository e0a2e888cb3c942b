package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the catalogue the benchmark is defined by.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// readBenchmarkFile returns BENCHMARK.json's units by metric name, for
// end-to-end (false) and per-layer (true) metrics, and each metric's
// direction.
func readBenchmarkFile(t *testing.T) (units map[bool]map[string]string, better map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	units = map[bool]map[string]string{false: {}, true: {}}
	better = map[string]string{}
	for _, m := range bf.EndToEnd {
		units[false][m.Name], better[m.Name] = m.Unit, m.Better
	}
	for _, m := range bf.PerLayer {
		units[true][m.Name], better[m.Name] = m.Unit, m.Better
	}
	return units, better
}

// TestWorkloadsTiny runs every workload for about a second at tiny
// scale, untraced and traced (the traced ingest run includes the read
// phase), with its output checks on, and checks that the printed
// metrics are exactly BENCHMARK.json's, with its units.
func TestWorkloadsTiny(t *testing.T) {
	want, _ := readBenchmarkFile(t)
	for _, workload := range []string{"ingest", "client"} {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			o := options{workload: workload, seed: 7, seconds: 1, trace: trace, small: true,
				workdir: t.TempDir(), log: &out}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", workload, trace, err)
			}
			if err := printResult(&out, o, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", workload, trace, err)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, got.Correct, got.Attempted, got.Failed)
			}
			var names []string
			for name, m := range got.Metrics {
				names = append(names, name)
				if unit, ok := want[trace][name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", workload, trace, name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", workload, trace, name, m.Unit, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive measurement", workload, name, m.Value)
				}
			}
			if len(names) != len(want[trace]) {
				sort.Strings(names)
				t.Errorf("%s trace=%v: printed %d metrics %v, BENCHMARK.json lists %d", workload, trace, len(names), names, len(want[trace]))
			}
		}
	}
}

// TestCatalogueMatchesBenchmarkFile keeps the program's metric
// catalogue and BENCHMARK.json in step.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	want, better := readBenchmarkFile(t)
	for _, m := range e2eMetrics {
		if want[false][m.name] != m.unit || better[m.name] != m.better {
			t.Errorf("end-to-end %s (%s, %s) does not match BENCHMARK.json", m.name, m.unit, m.better)
		}
	}
	for _, m := range layerMetrics {
		if want[true][m.name] != m.unit || better[m.name] != m.better {
			t.Errorf("per-layer %s (%s, %s) does not match BENCHMARK.json", m.name, m.unit, m.better)
		}
	}
	if len(want[false]) != len(e2eMetrics) || len(want[true]) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the catalogue %d+%d",
			len(want[false]), len(want[true]), len(e2eMetrics), len(layerMetrics))
	}
}
