package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hquorum/benchmark/internal/runner"
	"hquorum/benchmark/internal/stats"
)

// result is the last line a run prints.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]runner.Metric `json:"metrics"`
}

// exactCounts are the probe metrics that are counts made on seeded,
// single-goroutine code: they must read the same on every run.
var exactCounts = []string{
	"codec.allocs_per_msg", "codec.bytes_per_msg",
	"epoch.read_quorum_size_mean", "epoch.write_quorum_size_mean",
	"epoch.read_quorum_size_mean_susp2", "epoch.write_quorum_size_mean_susp2",
	"epoch.pick_load_max", "epoch.wan_cross_region_members_mean", "epoch.wan_cross_region_members_blind",
	"wal.bytes_per_record",
}

// spreadRow is one metric on one workload across the repeated sets.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound,omitempty"`
}

// summarize reads the result files repeat.sh left in dir (named
// set<k>-<workload>-t<0|1>.json), prints each metric's median, quartiles
// and spread per workload, writes the end-to-end spreads next to their
// bounds in benchmark/SPREADS.json, and fails when a spread exceeds its
// bound, a set's medians disagree by more than the bound, or a count
// that must repeat exactly does not.
func summarize(dir string) error {
	man, err := runner.ReadManifest(manifestPath)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	better := map[string]string{}
	for _, m := range man.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	files, err := filepath.Glob(filepath.Join(dir, "set*-*-t[01].json"))
	if err != nil {
		return err
	}
	// values[trace][workload][metric] in set order.
	values := [2]map[string]map[string][]float64{{}, {}}
	sort.Strings(files)
	for _, f := range files {
		base := strings.TrimSuffix(filepath.Base(f), ".json")
		trace := int(base[len(base)-1] - '0')
		name := base[strings.Index(base, "-")+1 : len(base)-3]
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if !r.Correct || r.Failed > 0 {
			return fmt.Errorf("%s: correct=%v, %d of %d operations failed", f, r.Correct, r.Failed, r.Attempted)
		}
		if values[trace][name] == nil {
			values[trace][name] = map[string][]float64{}
		}
		for metric, v := range r.Metrics {
			values[trace][name][metric] = append(values[trace][name][metric], v.Value)
		}
	}
	var rows []spreadRow
	var failures []string
	for _, w := range man.Workloads {
		byMetric := values[0][w.Name]
		if len(byMetric) == 0 {
			continue
		}
		fmt.Printf("== %s: end-to-end metrics over %d runs\n", w.Name, len(byMetric["ops_per_s"]))
		fmt.Printf("   %-16s %14s %14s %14s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, name := range runner.EndToEnd {
			vs := byMetric[name]
			if len(vs) < 2 {
				continue
			}
			q1, _, q3 := stats.Quartiles(vs)
			row := spreadRow{
				Workload: w.Name, Metric: name, Unit: runner.Units[name], Runs: len(vs),
				Median: stats.Median(vs), Q1: q1, Q3: q3, Spread: stats.Spread(vs), Bound: bounds[name],
			}
			rows = append(rows, row)
			flag := ""
			if name != "setup_s" && row.Spread > row.Bound {
				flag = "  SPREAD EXCEEDS BOUND"
				failures = append(failures, fmt.Sprintf("%s %s: spread %.3f exceeds bound %.3f", w.Name, name, row.Spread, row.Bound))
			}
			// Two independent halves of the sets must agree within the bound.
			half := len(vs) / 2
			a, b := stats.Median(vs[:half]), stats.Median(vs[half:])
			worse := (b - a) / a
			if better[name] == "higher" {
				worse = (a - b) / a
			}
			if worse > row.Bound {
				flag += "  HALVES DISAGREE"
				failures = append(failures, fmt.Sprintf("%s %s: second half's median %.4g is worse than the first's %.4g by more than %.3f", w.Name, name, b, a, row.Bound))
			}
			fmt.Printf("   %-16s %14.4f %14.4f %14.4f %8.4f %6.2f%s\n", name, row.Median, q1, q3, row.Spread, row.Bound, flag)
		}
	}
	for _, w := range man.Workloads {
		byMetric := values[1][w.Name]
		if len(byMetric) == 0 {
			continue
		}
		fmt.Printf("== %s: per-layer metrics over %d traced runs (median, spread)\n", w.Name, len(byMetric["client.traced_ops"]))
		for _, name := range runner.PerLayer() {
			vs := byMetric[name]
			if len(vs) == 0 {
				continue
			}
			fmt.Printf("   %-40s %16.4f %8.4f\n", name, stats.Median(vs), stats.Spread(vs))
		}
		for _, name := range exactCounts {
			vs := byMetric[name]
			for _, v := range vs {
				if v != vs[0] {
					failures = append(failures, fmt.Sprintf("%s %s: a count that must repeat exactly read %v and %v", w.Name, name, vs[0], v))
					break
				}
			}
		}
	}
	out, err := json.MarshalIndent(struct {
		Note string      `json:"note"`
		Rows []spreadRow `json:"end_to_end"`
	}{
		"Written by benchmark/repeat.sh: run-to-run spread (interquartile range as a share of the median) of each end-to-end metric, next to the bound BENCHMARK.json fixes for it. A bound has to be wider than the spread.",
		rows,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("benchmark/SPREADS.json", append(out, '\n'), 0o644); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("repeatability check failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("repeatability check passed: every spread is within its bound and every exact count repeats")
	return nil
}
