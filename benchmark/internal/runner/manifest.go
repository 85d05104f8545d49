package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Manifest is BENCHMARK.json: the command, the workloads, and every
// metric's name, unit, direction and (end to end) regression bound.
type Manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// ReadManifest loads BENCHMARK.json.
func ReadManifest(path string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// declared returns the metrics the manifest declares for a traced or an
// untraced run, name to unit.
func (m Manifest) declared(traced bool) map[string]string {
	out := map[string]string{}
	if traced {
		for _, d := range m.PerLayer {
			out[d.Name] = d.Unit
		}
	} else {
		for _, d := range m.EndToEnd {
			out[d.Name] = d.Unit
		}
	}
	return out
}

// Check compares what a run is about to print with what the manifest
// declares for that kind of run: a metric printed but not declared,
// declared but not printed, or printed under another unit is an error.
func (m Manifest) Check(traced bool, metrics map[string]Metric) error {
	want := m.declared(traced)
	var bad []string
	for name, unit := range want {
		got, ok := metrics[name]
		switch {
		case !ok:
			bad = append(bad, name+" is declared but not printed")
		case got.Unit != unit:
			bad = append(bad, fmt.Sprintf("%s is printed in %q, declared in %q", name, got.Unit, unit))
		}
	}
	for name := range metrics {
		if _, ok := want[name]; !ok {
			bad = append(bad, name+" is printed but not declared")
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("metrics do not match BENCHMARK.json: %s", strings.Join(bad, "; "))
}
