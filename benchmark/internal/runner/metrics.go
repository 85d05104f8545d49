package runner

import (
	"sort"
	"strings"

	"hquorum/benchmark/internal/sut"
)

// EndToEnd lists the end-to-end metric names in report order.
var EndToEnd = []string{
	"ops_per_s", "read_p50_us", "write_p50_us", "cpu_us_per_op", "peak_rss_mb", "setup_s",
}

// Units gives every metric's unit. BENCHMARK.json declares the same
// names and units; a test keeps the two in step.
var Units = map[string]string{
	"ops_per_s":     "1/s",
	"read_p50_us":   "us",
	"write_p50_us":  "us",
	"cpu_us_per_op": "us",
	"peak_rss_mb":   "MiB",
	"setup_s":       "s",
}

func init() {
	for name, unit := range sut.ProbeUnits {
		Units[name] = unit
	}
	for name, unit := range layerUnits {
		Units[name] = unit
	}
	for _, st := range traceStages {
		Units["optrace."+st+"_p50_us"] = "us"
	}
}

// PerLayer lists the per-layer metric names, sorted.
func PerLayer() []string {
	var names []string
	for name := range Units {
		if strings.Contains(name, ".") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// higherIsBetter names the metrics where more is better; for every
// other metric less is.
var higherIsBetter = map[string]bool{
	"ops_per_s":                true,
	"client.traced_ops":        true,
	"client.traced_ops_ps":     true,
	"transport.msgs_per_flush": true,
	"transport.fastpath_frac":  true,
	"rkv.pick_cache_hit_frac":  true,
	"rkv.node_share_min":       true,
	"wal.records_per_sync":     true,
	"wal.replay_records_per_s": true,
	"lease.local_read_frac":    true,
	"gateway.stub_ops_per_s":   true,
}

// Better returns "higher" or "lower" for a metric.
func Better(name string) string {
	if higherIsBetter[name] {
		return "higher"
	}
	return "lower"
}
