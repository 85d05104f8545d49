package gen

import (
	"strings"
	"testing"
)

func stream(seed uint64, zipf float64) string {
	g := New(Mix{Seed: seed, Keys: 4096, ReadFrac: 0.5, Zipf: zipf})
	var b strings.Builder
	for d := 0; d < 2; d++ {
		for i := uint64(0); i < 2000; i++ {
			op := g.Op(d, i)
			b.WriteString(g.KeyName(op.Key))
			if op.Read {
				b.WriteString(" r\n")
			} else {
				b.WriteString(" w " + op.Value + "\n")
			}
		}
	}
	return b.String()
}

func TestEqualSeedsGiveIdenticalStreams(t *testing.T) {
	for _, zipf := range []float64{0, 1.1} {
		a, b, c := stream(7, zipf), stream(7, zipf), stream(8, zipf)
		if a != b {
			t.Errorf("zipf %v: two streams from seed 7 differ", zipf)
		}
		if a == c {
			t.Errorf("zipf %v: seeds 7 and 8 give the same stream", zipf)
		}
	}
}

func TestMixFollowsItsParameters(t *testing.T) {
	g := New(Mix{Seed: 3, Keys: 4096, ReadFrac: 0.9, Zipf: 1.1})
	reads, hot := 0, map[int]int{}
	const n = 50000
	for i := uint64(0); i < n; i++ {
		op := g.Op(0, i)
		if op.Read {
			reads++
		}
		hot[op.Key]++
	}
	if f := float64(reads) / n; f < 0.89 || f > 0.91 {
		t.Errorf("read fraction %.3f, want 0.9", f)
	}
	max := 0
	for _, c := range hot {
		if c > max {
			max = c
		}
	}
	// Under zipf 1.1 over 4096 keys the hottest key draws about 14%.
	if f := float64(max) / n; f < 0.10 || f > 0.18 {
		t.Errorf("hottest key drew %.3f of the operations, want about 0.14", f)
	}
}

func TestValuesVerifyThemselves(t *testing.T) {
	g := New(Mix{Seed: 1, Keys: 64, ReadFrac: 0.5})
	var w Op
	var wi uint64
	for i := uint64(0); ; i++ {
		if op := g.Op(1, i); !op.Read {
			w, wi = op, i
			break
		}
	}
	if len(w.Value) != ValueSize {
		t.Fatalf("value has %d bytes, want %d", len(w.Value), ValueSize)
	}
	key := g.KeyName(w.Key)
	d, i, err := g.Wrote(key, w.Value)
	if err != nil || d != 1 || i != wi {
		t.Fatalf("Wrote = %d, %d, %v; want 1, %d, nil", d, i, err, wi)
	}
	other := g.KeyName((w.Key + 1) % g.Keys())
	if _, _, err := g.Wrote(other, w.Value); err == nil {
		t.Error("a value written to one key was accepted for another")
	}
	if _, _, err := g.Wrote(key, Value(key, 1, wi+1_000_003)); err == nil {
		// That index may by chance be a write to the same key; it is not
		// for this seed.
		t.Error("a value no operation writes was accepted")
	}
	if _, _, err := g.Wrote(key, strings.Repeat("x", ValueSize)); err == nil {
		t.Error("garbage was accepted as a written value")
	}
}
