// Seed fuzz corpus maintenance for FuzzDecodeBody. The corpus under
// testdata/fuzz/FuzzDecodeBody is committed so `go test -fuzz` starts from
// real frames of every protocol — rkv's batch, reconfiguration, workload
// and lease messages (tags 0x13-0x1f, 0x30-0x37) and dmutex's seven mutex
// messages (0x27-0x2d) — instead of rediscovering the wire format from
// zero. The frames of the retired tags (0x00, the gob envelope; 0x10-0x12,
// rkv's single-key frames; 0x20-0x26, dmutex's epoch-stamped frames) stay
// committed as negative seeds: they were valid input once, and must now be
// refused like any unknown tag.
// Go's fuzzer replays the whole corpus on plain `go test` runs too, so a
// decoder regression on any historical frame shape fails CI immediately.
//
// This file lives in package codec_test (not codec) because the frames are
// produced by the real rkv/dmutex registries, which import codec.
//
// Regenerate after adding a wire message:
//
//	go test ./internal/codec -run TestSeedCorpus -update-corpus
package codec_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"hquorum/internal/codec"
	"hquorum/internal/dmutex"
	"hquorum/internal/rkv"
)

var updateCorpus = flag.Bool("update-corpus", false, "regenerate the committed seed fuzz corpus")

const corpusDir = "testdata/fuzz/FuzzDecodeBody"

// retiredSeeds are the committed frames of tags no registry binds any
// more. -update-corpus never rewrites them.
var retiredSeeds = map[string]uint64{
	"seed-gob":      0x00,
	"seed-tag-0x10": 0x10,
	"seed-tag-0x11": 0x11,
	"seed-tag-0x12": 0x12,
	"seed-tag-0x20": 0x20,
	"seed-tag-0x21": 0x21,
	"seed-tag-0x22": 0x22,
	"seed-tag-0x23": 0x23,
	"seed-tag-0x24": 0x24,
	"seed-tag-0x25": 0x25,
	"seed-tag-0x26": 0x26,
}

// liveRegistry is the union of every protocol's real binary codecs — the
// registry a production transport carries.
func liveRegistry() *codec.Registry {
	reg := codec.NewRegistry()
	rkv.RegisterBinaryWire(reg)
	dmutex.RegisterBinaryWire(reg)
	return reg
}

// seedFrames returns the corpus entries: file name -> frame body (the
// bytes FuzzDecodeBody consumes, i.e. everything after the length prefix).
func seedFrames(t *testing.T) map[string][]byte {
	t.Helper()
	reg := liveRegistry()
	frames := make(map[string][]byte)
	add := func(v any) {
		var buf bytes.Buffer
		if _, err := codec.NewEncoder(&buf, reg).Encode(5, v); err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		data := buf.Bytes()
		size, n := binary.Uvarint(data)
		body := data[n : n+int(size)]
		r := codec.NewReader(body)
		r.Uvarint() // from
		tag := r.Uvarint()
		frames[fmt.Sprintf("seed-tag-0x%02x", tag)] = body
	}
	for _, v := range rkv.WireSamples() {
		add(v)
	}
	for _, v := range dmutex.WireSamples() {
		add(v)
	}
	return frames
}

// TestSeedCorpusCoversAllTags verifies the committed corpus: every file
// parses, every well-formed seed decodes cleanly against the live
// registry, and together the seeds cover every registered tag (the
// retired seeds are TestRetiredTagsRefused's). With -update-corpus it (re)writes the seed files
// of the registered tags first.
func TestSeedCorpusCoversAllTags(t *testing.T) {
	frames := seedFrames(t)
	if *updateCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range frames {
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body)
			if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d seed frames to %s", len(frames), corpusDir)
	}

	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("corpus missing (run with -update-corpus to generate): %v", err)
	}
	reg := liveRegistry()
	covered := make(map[uint64]bool)
	seeds := 0
	for _, e := range entries {
		body := readCorpusFile(t, filepath.Join(corpusDir, e.Name()))
		r := codec.NewReader(body)
		r.Uvarint() // from
		tag := r.Uvarint()
		if r.Err() == nil {
			covered[tag] = true
		}
		if !strings.HasPrefix(e.Name(), "seed-") {
			continue // fuzz-discovered additions need not decode cleanly
		}
		if _, retired := retiredSeeds[e.Name()]; retired {
			continue // TestRetiredTagsRefused owns these
		}
		seeds++
		if _, _, err := codec.DecodeBody(body, reg); err != nil {
			t.Errorf("%s: well-formed seed no longer decodes: %v", e.Name(), err)
		}
	}
	if seeds < len(frames) {
		t.Errorf("corpus holds %d seed files, want %d (run with -update-corpus)", seeds, len(frames))
	}
	var want []uint64
	for tag := uint64(0x13); tag <= 0x1f; tag++ { // rkv: batch + reconfig + workload
		want = append(want, tag)
	}
	for tag := uint64(0x27); tag <= 0x2d; tag++ { // dmutex
		want = append(want, tag)
	}
	want = append(want, 0x30) // rkv overflow block: workload reply
	for _, tag := range want {
		if !covered[tag] {
			t.Errorf("corpus covers no frame with tag 0x%02x", tag)
		}
	}
}

// TestRetiredTagsRefused: a frame on a retired tag — each committed
// negative seed, with a megabyte of peer-controlled payload behind it —
// is refused as an unknown tag before anything looks at the payload: no
// panic, and no allocation that grows with the frame.
func TestRetiredTagsRefused(t *testing.T) {
	reg := liveRegistry()
	for name, tag := range retiredSeeds {
		body := readCorpusFile(t, filepath.Join(corpusDir, name))
		if r := codec.NewReader(body); r.Uvarint() != 5 || r.Uvarint() != tag {
			t.Fatalf("%s is not a frame on tag 0x%02x", name, tag)
		}
		body = append(body, make([]byte, 1<<20)...)
		const runs = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, v, err := codec.DecodeBody(body, reg); !errors.Is(err, codec.ErrUnknownTag) || v != nil {
				t.Fatalf("%s (tag 0x%02x): decoded to %#v, %v; want ErrUnknownTag", name, tag, v, err)
			}
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 4096 {
			t.Errorf("%s: refusing a %d-byte frame allocated %d bytes", name, len(body), perRun)
		}
	}
}

// readCorpusFile parses Go's fuzz corpus format: a version line followed
// by one []byte("...") literal.
func readCorpusFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 3)
	if len(lines) < 2 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	lit := strings.TrimSpace(lines[1])
	if !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: unexpected corpus entry %q", path, lit)
	}
	s, err := strconv.Unquote(lit[len("[]byte(") : len(lit)-1])
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
