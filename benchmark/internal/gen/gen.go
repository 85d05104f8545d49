// Package gen is the benchmark's seeded workload generator. It is
// stateless: operation i of driver d under seed s is a pure function of
// (s, d, i), so equal seeds give byte-identical streams, drivers never
// share generator state, and a value read back from the store can be
// traced to the exact operation that must have written it.
package gen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ValueSize is the length of every written value, in bytes.
const ValueSize = 64

// Op is one generated operation. Read ops carry no value.
type Op struct {
	Read  bool
	Key   int // index into Keys
	Value string
}

// Mix describes one workload's operation stream.
type Mix struct {
	Seed     uint64
	Keys     int
	ReadFrac float64
	// Zipf is the key-skew exponent; 0 draws keys uniformly.
	Zipf float64
}

// Gen draws operations for a Mix.
type Gen struct {
	mix  Mix
	keys []string
	// cdf is the cumulative zipf distribution over key ranks (nil when
	// uniform); rank r maps to key perm[r] so the hot keys are not simply
	// the first ones.
	cdf   []float64
	perm  []int
	share []float64 // per key index, zipf only
	// readBelow is ReadFrac scaled to the 53-bit draw.
	readBelow uint64
}

// New builds the generator, including its key table and zipf CDF.
func New(mix Mix) *Gen {
	g := &Gen{mix: mix, keys: make([]string, mix.Keys)}
	for i := range g.keys {
		g.keys[i] = fmt.Sprintf("k%04d", i)
	}
	g.readBelow = uint64(mix.ReadFrac * (1 << 53))
	if mix.Zipf > 0 {
		g.cdf = make([]float64, mix.Keys)
		sum := 0.0
		for r := range g.cdf {
			sum += 1 / math.Pow(float64(r+1), mix.Zipf)
			g.cdf[r] = sum
		}
		for r := range g.cdf {
			g.cdf[r] /= sum
		}
		g.perm = make([]int, mix.Keys)
		for i := range g.perm {
			g.perm[i] = i
		}
		for i := mix.Keys - 1; i > 0; i-- {
			j := int(hash(mix.Seed, 0xfeed, uint64(i)) % uint64(i+1))
			g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
		}
		g.share = make([]float64, mix.Keys)
		for r, k := range g.perm {
			g.share[k] = g.cdf[r]
			if r > 0 {
				g.share[k] -= g.cdf[r-1]
			}
		}
	}
	return g
}

// Share returns the probability that an operation targets key k.
func (g *Gen) Share(k int) float64 {
	if g.cdf == nil {
		return 1 / float64(len(g.keys))
	}
	return g.share[k]
}

// KeyName returns the store key for a key index.
func (g *Gen) KeyName(k int) string { return g.keys[k] }

// Keys returns the size of the key space.
func (g *Gen) Keys() int { return len(g.keys) }

// hash is splitmix64 over the three coordinates.
func hash(seed, a, b uint64) uint64 {
	x := seed ^ (a+1)*0x9e3779b97f4a7c15 ^ (b+1)*0xc2b2ae3d27d4eb4f
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (g *Gen) isRead(driver int, i uint64) bool {
	return hash(g.mix.Seed, uint64(driver)<<1, i)>>11 < g.readBelow
}

func (g *Gen) key(driver int, i uint64) int {
	h := hash(g.mix.Seed, uint64(driver)<<1|1, i)
	if g.cdf == nil {
		return int(h % uint64(len(g.keys)))
	}
	u := float64(h>>11) / (1 << 53)
	r := sort.SearchFloat64s(g.cdf, u)
	if r >= len(g.perm) {
		r = len(g.perm) - 1
	}
	return g.perm[r]
}

// Op returns operation i of the given driver.
func (g *Gen) Op(driver int, i uint64) Op {
	op := Op{Read: g.isRead(driver, i), Key: g.key(driver, i)}
	if !op.Read {
		op.Value = Value(g.keys[op.Key], driver, i)
	}
	return op
}

// Value is the self-verifying payload written by operation i of a
// driver: "key|driver|i|" padded to ValueSize. Every write value is
// unique, which is what the linearizability checker requires.
func Value(key string, driver int, i uint64) string {
	b := make([]byte, 0, ValueSize)
	b = append(b, key...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(driver), 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, i, 10)
	b = append(b, '|')
	for len(b) < ValueSize {
		b = append(b, '.')
	}
	return string(b)
}

// Parse splits a value produced by Value into its fields.
func Parse(v string) (key string, driver int, i uint64, err error) {
	if len(v) != ValueSize {
		return "", 0, 0, fmt.Errorf("value has %d bytes, want %d", len(v), ValueSize)
	}
	parts := strings.SplitN(v, "|", 4)
	if len(parts) != 4 || strings.Trim(parts[3], ".") != "" {
		return "", 0, 0, fmt.Errorf("value %q is not key|driver|seq|padding", v)
	}
	d, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, 0, fmt.Errorf("value %q: driver: %w", v, err)
	}
	i, err = strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return "", 0, 0, fmt.Errorf("value %q: seq: %w", v, err)
	}
	return parts[0], d, i, nil
}

// Wrote reports whether a value read from key is one this stream
// actually writes there: operation i of its driver must be a write to
// that key carrying exactly these bytes. The caller still has to check
// that the operation had been issued by the time of the read.
func (g *Gen) Wrote(key string, v string) (driver int, i uint64, err error) {
	k, d, i, err := Parse(v)
	if err != nil {
		return 0, 0, err
	}
	if k != key {
		return 0, 0, fmt.Errorf("key %q returned a value written to %q", key, k)
	}
	if d < 0 {
		return 0, 0, fmt.Errorf("value %q names driver %d", v, d)
	}
	op := g.Op(d, i)
	if op.Read || g.keys[op.Key] != key {
		return 0, 0, fmt.Errorf("value %q: driver %d op %d does not write key %q", v, d, i, key)
	}
	return d, i, nil
}
