package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMain is the first argument of a re-executed test binary that should
// run mutexsim's main instead of the tests.
const runMain = "-run-mutexsim-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMain {
		os.Args = append([]string{"mutexsim"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mutexsim runs the real main in a child process and returns its stdout,
// stderr and exit code.
func mutexsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runMain}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestDefaultRun pins the summary of the default run (h-triang(5), three
// critical sections per node, seed 1). The simulator is deterministic, so
// every line is exact — it moves with h-triang(5)'s seeded pick stream —
// and the virtual time is when the last critical section ended, not the
// run's 10-minute cap.
func TestDefaultRun(t *testing.T) {
	stdout, stderr, code := mutexsim(t)
	want := `system:            h-triang(5) (15 nodes, quorums 5..5)
crashed nodes:     0
critical sections: 45
virtual time:      1.022009487s
messages:          996 (22.1 per entry)
retries:           4
avg wait:          303.055813ms
`
	if code != 0 || stderr != "" || stdout != want {
		t.Fatalf("mutexsim: exit %d, stderr %q, stdout:\n%s\nwant exit 0 and:\n%s", code, stderr, stdout, want)
	}
}

// TestBadFlags: a size, request count, crash count or duration out of
// range exits 2 with one line naming the flag, instead of a stack trace, a
// run that does nothing or a run that never finishes.
func TestBadFlags(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-system majority -n 0", "mutexsim: -n 0: must be >= 1"},
		{"-system cwlog -n -2", "mutexsim: -n -2: must be >= 1"},
		{"-system htriang -k 0", "mutexsim: -k 0: must be >= 1"},
		{"-system htgrid -rows 0", "mutexsim: -rows 0: must be >= 1"},
		{"-system hgrid -cols -1", "mutexsim: -cols -1: must be >= 1"},
		{"-requests 0", "mutexsim: -requests 0: must be >= 1"},
		{"-requests -1", "mutexsim: -requests -1: must be >= 1"},
		{"-requests 0 -nemesis churn", "mutexsim: -requests 0: must be >= 1"},
		{"-crash -1", "mutexsim: -crash -1: must be >= 0"},
		{"-hold -1ms", "mutexsim: -hold -1ms: must be >= 0"},
		{"-think -5ms", "mutexsim: -think -5ms: must be >= 0"},
	} {
		stdout, stderr, code := mutexsim(t, strings.Fields(c.args)...)
		if code != 2 || stdout != "" || stderr != c.want+"\n" {
			t.Errorf("mutexsim %s: exit %d, stdout %q, stderr %q; want exit 2 and %q", c.args, code, stdout, stderr, c.want)
		}
	}
}
