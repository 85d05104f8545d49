package main

import (
	"bytes"
	"os"
	"testing"
)

// TestQuickGolden pins the -quick output — Tables 1–5 and both figures,
// Table 3's three largest columns sampled with fixed seeds — byte for
// byte. Every availability sweep of the paper runs under it: the circuit
// and word paths, the memo cache and the structural DPs. When a change is
// meant to move the output, regenerate the file with
// `go run ./cmd/paper-tables -quick > cmd/paper-tables/testdata/quick.golden`.
func TestQuickGolden(t *testing.T) {
	var got bytes.Buffer
	run(&got, 0, true)
	const golden = "testdata/quick.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("paper-tables -quick output differs from %s:\n%s", golden, got.String())
	}
}
