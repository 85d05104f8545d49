package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
)

// runMain is the first argument of a re-executed test binary that should
// run paper-tables' main instead of the tests.
const runMain = "-run-paper-tables-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMain {
		os.Args = append([]string{"paper-tables"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTablesGolden pins the output — Tables 1–5 and both figures — byte
// for byte. Every availability computation of the paper runs under it: the
// decision diagrams of the gates and of Paths' and Y's graphs, the closed
// forms and the structural DPs. When a change is meant to move the
// output, regenerate the file with
// `go run ./cmd/paper-tables > cmd/paper-tables/testdata/tables.golden`.
func TestTablesGolden(t *testing.T) {
	var got bytes.Buffer
	run(&got, 0)
	const golden = "testdata/tables.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("paper-tables output differs from %s:\n%s", golden, got.String())
	}
}

// TestBadTable: a -table value with no table behind it exits 2 with one
// line instead of printing nothing.
func TestBadTable(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-table", "7"}, "paper-tables: -table 7: want 0 (everything) or 1-5\n"},
		{[]string{"-table", "-1"}, "paper-tables: -table -1: want 0 (everything) or 1-5\n"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{runMain}, c.args...)...)
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("paper-tables %v: %v, want exit 2", c.args, err)
			continue
		}
		if out.Len() != 0 || errOut.String() != c.want {
			t.Errorf("paper-tables %v: stdout %q, stderr %q; want no output and %q", c.args, out.String(), errOut.String(), c.want)
		}
	}
}
