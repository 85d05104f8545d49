package main

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"hquorum/internal/epoch"
	"hquorum/internal/optrace"
	"hquorum/internal/rkv"
	"hquorum/internal/transport"
)

// numericLeaves walks a decoded JSON value and fails the test on any
// leaf under path that is not a number, bool or string — the shape
// guarantee scrapers (quorumctl, dashboards) rely on.
func numericLeaves(t *testing.T, path string, v any) {
	t.Helper()
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			numericLeaves(t, path+"."+k, sub)
		}
	case []any:
		for _, sub := range x {
			numericLeaves(t, path+"[]", sub)
		}
	case float64, bool, string, nil:
	default:
		t.Fatalf("%s: non-scalar leaf %T", path, v)
	}
}

// TestMetricsHandlerShape is the golden-shape test for kvd's /metrics
// document: every advertised counter group must be present, and the new
// optrace group must carry every stage with a numeric count.
func TestMetricsHandlerShape(t *testing.T) {
	flavor, err := epoch.ParseFlavor("majority")
	if err != nil {
		t.Fatal(err)
	}
	epochs, err := epoch.NewStore(4, epoch.Params{Flavor: flavor, Members: epoch.MemberRange(0, 4)})
	if err != nil {
		t.Fatal(err)
	}
	node, err := rkv.NewNode(0, rkv.Config{Epochs: epochs, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := transport.NewNode(0, node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()

	// Fold one synthetic sampled op so stage counts are exercised, not
	// just present-and-zero.
	rec := node.Tracer().Sample()
	if rec == nil {
		t.Fatal("1-in-1 tracer did not sample")
	}
	rec.Tag(optrace.KindRead, 1, 1)
	rec.Begin(optrace.StageLock)
	rec.End(optrace.StageLock)
	rec.Done()

	h := metricsHandler(node, tn, epochs, true)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics is not JSON: %v", err)
	}

	for _, group := range []string{
		"epoch", "config", "joint", "transport", "pick_cache",
		"workload", "lease", "wal", "optrace",
	} {
		if _, ok := doc[group]; !ok {
			t.Fatalf("missing counter group %q", group)
		}
	}
	numericLeaves(t, "metrics", doc)

	ls, ok := doc["lease"].(map[string]any)
	if !ok {
		t.Fatalf("lease group is %T", doc["lease"])
	}
	for _, k := range []string{"grants", "renewals", "local_reads", "local_versions", "inval_rounds", "expiries"} {
		if _, ok := ls[k].(float64); !ok {
			t.Fatalf("lease group: %q is %T, want a number", k, ls[k])
		}
	}

	wl, ok := doc["workload"].(map[string]any)
	if !ok {
		t.Fatalf("workload group is %T", doc["workload"])
	}
	for _, k := range []string{"writeback_frac", "one_round_reads"} {
		if _, ok := wl[k].(float64); !ok {
			t.Fatalf("workload group: %q is %T, want a number", k, wl[k])
		}
	}

	ot, ok := doc["optrace"].(map[string]any)
	if !ok {
		t.Fatalf("optrace group is %T", doc["optrace"])
	}
	for _, k := range []string{"sample_every", "sampled", "reads", "writes", "other", "avg_batch", "epoch", "stages"} {
		if _, ok := ot[k]; !ok {
			t.Fatalf("optrace group missing %q", k)
		}
	}
	stages, ok := ot["stages"].(map[string]any)
	if !ok {
		t.Fatalf("optrace stages is %T", ot["stages"])
	}
	for _, name := range optrace.StageNames() {
		st, ok := stages[name].(map[string]any)
		if !ok {
			t.Fatalf("stage %q missing or malformed", name)
		}
		if _, ok := st["count"].(float64); !ok {
			t.Fatalf("stage %q count is %T", name, st["count"])
		}
	}
	if lock := stages["lock"].(map[string]any); lock["count"].(float64) != 1 {
		t.Fatalf("folded lock stage not visible: %+v", lock)
	}
	if ot["sampled"].(float64) != 1 {
		t.Fatalf("sampled = %v", ot["sampled"])
	}
}
