package main

import (
	"bytes"
	"strings"
	"testing"

	"hquorum/internal/nemesis"
)

// TestReportVerdict: the sweep fails — exit status 1 with the count on
// the output — when any run violated safety or any checker run was left
// undecided, and passes only when both are zero.
func TestReportVerdict(t *testing.T) {
	line := func(undecided, violations int) nemesis.Line {
		return nemesis.Line{Proto: "rkv", Case: "c", Schedule: "s", Runs: 5, Completed: 30, Undecided: undecided, Violations: violations}
	}
	for _, tc := range []struct {
		name   string
		lines  []nemesis.Line
		status int
		want   string
	}{
		{"clean", []nemesis.Line{line(0, 0), line(0, 0)}, 0, "ok: no safety violations"},
		{"undecided", []nemesis.Line{line(2, 0), line(1, 0)}, 1, "FAIL: 3 run(s) undecided"},
		{"violation", []nemesis.Line{line(0, 1)}, 1, "FAIL: 1 run(s) violated safety"},
		{"both", []nemesis.Line{line(1, 2)}, 1, "FAIL: 1 run(s) undecided"},
	} {
		var out bytes.Buffer
		if got := report(&out, &nemesis.Summary{Lines: tc.lines}); got != tc.status {
			t.Errorf("%s: exit status %d, want %d", tc.name, got, tc.status)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.want, out.String())
		}
		if tc.status != 0 && strings.Contains(out.String(), "ok:") {
			t.Errorf("%s: a failing sweep printed ok:\n%s", tc.name, out.String())
		}
	}
}
