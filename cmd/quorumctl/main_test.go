package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/rkv"
	"hquorum/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current build")

// runMain is the first argument of a re-executed test binary that should
// run quorumctl's main instead of the tests.
const runMain = "-run-quorumctl-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMain {
		os.Args = append([]string{"quorumctl"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// quorumctl runs the real main in a child process and returns its stdout,
// stderr and exit code.
func quorumctl(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

// goldenCases are the analysis subcommands on small systems (n ≤ 16, and
// the 25- and 28-process graph systems and one 36-process h-T-grid that
// the decision diagrams count exactly) with a fixed seed; the operator
// subcommands need a live cluster.
var goldenCases = []string{
	"list",
	"render figure1",
	"render figure2",
	"show hgrid 4 4",
	"show flatgrid 3 4",
	"show htgrid 4 4",
	"show htgrid 3 5",
	"show htriang 5",
	"show majority 9",
	"show htgrid 6 6",
	"show paths 3",
	"show y 7",
	"quorums hgrid 2 3",
	"quorums flatgrid 2 3",
	"quorums htgrid 3 3",
	"quorums htriang 4",
	"quorums majority 5",
	"nd hgrid 3 3",
	"nd flatgrid 2 3",
	"nd htgrid 3 3",
	"nd htriang 4",
	"nd majority 5",
	"poly hgrid 4 4",
	"poly htgrid 4 4",
	"poly htriang 5",
	"importance 0.1 htgrid 3 3",
	"importance 0.2 htriang 4",
	"compare htgrid 4 4 -- hgrid 4 4",
	"compare htriang 5 -- majority 15",
	"byz 1 dissemination htgrid 3 3",
	"byz 1 masking htriang 4",
}

// TestGolden pins quorumctl's output byte for byte: every case's stdout,
// stderr and exit code, in testdata/golden.txt. The show, quorums and nd
// cases run the constructions' Pick, Available and enumerations; show,
// poly and compare count through the decision diagrams of the gates and
// of Paths' and Y's graphs (show htgrid 6 6 is exact past the enumerator's
// 30 processes), importance enumerates. Regenerate with
// `go test ./cmd/quorumctl -run TestGolden -update` only when a change is
// meant to move the output.
func TestGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range goldenCases {
		stdout, stderr, code := quorumctl(t, append([]string{"-seed", "3"}, strings.Fields(c)...)...)
		fmt.Fprintf(&got, "$ quorumctl -seed 3 %s\n%s", c, stdout)
		if stderr != "" {
			fmt.Fprintf(&got, "stderr: %s", stderr)
		}
		fmt.Fprintf(&got, "exit %d\n\n", code)
	}
	const golden = "testdata/golden.txt"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("quorumctl output differs from %s:\n%s", golden, got.String())
	}
}

// TestBadArguments: a size argument below 1 or a constructor's rejection
// exits 2 with one line naming the argument, not a stack trace. So does
// a count or importance query on a system no exact engine reaches (the
// line names the limit), and a reconfig target, member spec or configuration that cannot be run on
// the cluster its peers file (PEERS: ids 0–16) describes, before anything
// is sized from it or dialed.
func TestBadArguments(t *testing.T) {
	var peerLines strings.Builder
	for id := 0; id <= 16; id++ {
		fmt.Fprintf(&peerLines, "%d 127.0.0.1:%d\n", id, 7400+id)
	}
	peers := filepath.Join(t.TempDir(), "peers.txt")
	if err := os.WriteFile(peers, []byte(peerLines.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ args, want string }{
		{"show htriang 0", `quorumctl: htriang: size argument "0" must be >= 1`},
		{"show majority -3", `quorumctl: majority: size argument "-3" must be >= 1`},
		{"show paths 0", `quorumctl: paths: size argument "0" must be >= 1`},
		{"show y 0", `quorumctl: y: size argument "0" must be >= 1`},
		{"show hgrid 0 4", `quorumctl: hgrid: size argument "0" must be >= 1`},
		{"show htgrid 2 0", `quorumctl: htgrid: size argument "0" must be >= 1`},
		{"quorums flatgrid 3 -1", `quorumctl: flatgrid: size argument "-1" must be >= 1`},
		{"nd cwlog 0", `quorumctl: cwlog: size argument "0" must be >= 1`},
		{"poly hqs 2 0", `quorumctl: hqs: size argument "0" must be >= 1`},
		{"show grouped-hqs x 3", `quorumctl: grouped-hqs: argument "x" is not an integer`},
		{"show hgrid 4", `quorumctl: hgrid: missing argument 2`},
		{"importance 1.5 htgrid 3 3", `quorumctl: importance: crash probability "1.5" must be a number in [0, 1]`},
		{"importance -0.2 htgrid 3 3", `quorumctl: importance: crash probability "-0.2" must be a number in [0, 1]`},
		{"importance NaN htgrid 3 3", `quorumctl: importance: crash probability "NaN" must be a number in [0, 1]`},
		{"importance x htgrid 3 3", `quorumctl: importance: crash probability "x" must be a number in [0, 1]`},
		{"importance 0.1 htgrid 6 6", `quorumctl: importance: h-T-grid(6x6): enumeration over 36 processes, at most 26`},
		{"poly majority 65", `quorumctl: poly: majority(65): analysis: no exact transversal counts: quorum: no exact diagram: 65 processes, at most 64`},
		{"poly paths 4", `quorumctl: poly: paths(41): analysis: no exact transversal counts: quorum: no exact diagram: past 262144 nodes`},
		{"compare majority 5 -- y 9", `quorumctl: compare: y(45): analysis: no exact transversal counts: quorum: no exact diagram: past 262144 nodes`},
		{"reconfig -peers PEERS -id 16 hmaj 2 1000000000 2 2", `quorumctl: reconfig: hmaj levels 1000000000 (want 1..62)`},
		{"reconfig -peers PEERS -id 16 paxos", `quorumctl: reconfig: epoch: unknown flavor "paxos" (want majority|hgrid|htgrid|htriang|hmaj)`},
		{"reconfig -peers PEERS -id 16 -target-members 0-9223372036854775807 majority", `quorumctl: reconfig: epoch: member 9223372036854775807 outside ID space 17`},
		{"reconfig -peers PEERS -id 16 htgrid 3 3", `quorumctl: reconfig: epoch: htgrid needs rows*cols == members (3x3 vs 16)`},
		{"byz 2305843009213693952 dissemination htriang 4", `quorumctl: byz: bqs: fault bound 2305843009213693952 out of range`},
		{"byz 1152921504606846976 dissemination htriang 4", `quorumctl: byz: bqs: 10 clusters of 3458764513820540929 servers overflow the server count`},
		{"byz 9223372036854775807 masking htriang 3", `quorumctl: byz: bqs: fault bound 9223372036854775807 out of range`},
		{"byz -1 masking htriang 3", `quorumctl: byz: bqs: fault bound -1 out of range`},
		{"byz x masking htriang 3", `quorumctl: byz: fault bound "x" is not an integer`},
		{"byz 1 paxos htriang 3", `quorumctl: byz: unknown class "paxos" (want dissemination|masking)`},
	} {
		stdout, stderr, code := quorumctl(t, strings.Fields(strings.ReplaceAll(c.args, "PEERS", peers))...)
		if code != 2 || stdout != "" || stderr != c.want+"\n" {
			t.Errorf("quorumctl %s: exit %d, stdout %q, stderr %q; want exit 2 and %q", c.args, code, stdout, stderr, c.want)
		}
	}
}

// TestReconfigLive runs `quorumctl reconfig` against a live cluster: four
// rkv replicas on a loopback mesh running majority, a peers file that
// also names a free port for the client (ID 4), and a few keys written
// before the swap. Its target's members default to every peer but the
// client, so `hgrid 2 2` runs on replicas 0–3; the command must print
// epoch 3, and every key must read back afterwards through the new
// quorums. A -contact outside the peers file exits non-zero.
func TestReconfigLive(t *testing.T) {
	initial := epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 4)}
	handlers := make([]cluster.Handler, 4)
	replicas := make([]*rkv.Node, 4)
	for i := range replicas {
		es, err := epoch.NewStore(5, initial)
		if err != nil {
			t.Fatal(err)
		}
		if replicas[i], err = rkv.NewNode(cluster.NodeID(i), rkv.Config{Epochs: es}); err != nil {
			t.Fatal(err)
		}
		handlers[i] = replicas[i]
	}
	mesh, err := transport.NewMesh(handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := ln.Addr().String()
	ln.Close()
	var peerLines strings.Builder
	for i := 0; i < 4; i++ {
		mesh.Node(i).Connect(map[cluster.NodeID]string{4: client})
		fmt.Fprintf(&peerLines, "%d %s\n", i, mesh.Node(i).Addr())
	}
	fmt.Fprintf(&peerLines, "4 %s\n", client)
	peers := filepath.Join(t.TempDir(), "peers.txt")
	if err := os.WriteFile(peers, []byte(peerLines.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	mesh.Start()
	node := replicas[1]
	node.SetWake(func() { mesh.Node(1).Kick(0, node.StartToken()) })
	do := func(op rkv.Op) rkv.Result {
		t.Helper()
		done := make(chan rkv.Result, 1)
		node.Submit(op, func(r rkv.Result) { done <- r })
		select {
		case r := <-done:
			if r.Err != nil {
				t.Fatalf("%+v: %v", op, r.Err)
			}
			return r
		case <-time.After(20 * time.Second):
			t.Fatalf("%+v: no result", op)
		}
		return rkv.Result{}
	}
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		do(rkv.Op{Kind: rkv.OpWrite, Key: k, Value: "v-" + k})
	}

	if _, stderr, code := quorumctl(t, "reconfig", "-peers", peers, "-id", "4", "-contact", "9", "hgrid", "2", "2"); code == 0 {
		t.Fatalf("-contact outside the peers file exited 0 (stderr %q)", stderr)
	}
	stdout, stderr, code := quorumctl(t, "reconfig", "-peers", peers, "-id", "4", "-timeout", "30s", "hgrid", "2", "2")
	if code != 0 || !strings.HasPrefix(stdout, "reconfigured: epoch 3 ") {
		t.Fatalf("reconfig: exit %d, stdout %q, stderr %q; want epoch 3", code, stdout, stderr)
	}
	for _, k := range keys {
		if r := do(rkv.Op{Kind: rkv.OpRead, Key: k}); r.Value != "v-"+k {
			t.Fatalf("read %s after the swap returned %q", k, r.Value)
		}
	}
}
