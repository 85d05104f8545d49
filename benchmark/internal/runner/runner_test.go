package runner

import (
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hquorum/benchmark/internal/gen"
	"hquorum/benchmark/internal/sut"
)

// mapStore is a linearizable in-memory store behind the Submitter
// interface: a mutex around a map, completing on another goroutine.
// With corrupt set it answers one read with a value nobody wrote.
type mapStore struct {
	mu      sync.Mutex
	m       map[string]string
	version uint64
	corrupt bool
}

func (s *mapStore) Submit(op sut.Op, cb func(sut.Result)) {
	go func() {
		s.mu.Lock()
		var r sut.Result
		s.version++
		r.Order = s.version
		if op.Read {
			r.Value = s.m[op.Key]
			if s.corrupt && r.Value != "" {
				s.corrupt = false
				r.Value = gen.Value("k9999", 0, 1)
			}
		} else {
			s.m[op.Key] = op.Value
		}
		s.mu.Unlock()
		cb(r)
	}()
}

func runEngine(t *testing.T, store *mapStore) (*engine, window) {
	t.Helper()
	g := gen.New(gen.Mix{Seed: 5, Keys: 16, ReadFrac: 0.5})
	e := newEngine(g, []sut.Submitter{store, store}, nil, 8, nil, 5)
	e.run()
	time.Sleep(100 * time.Millisecond)
	if err := e.halt(); err != nil {
		t.Fatal(err)
	}
	return e, e.rotate()
}

func TestEngineKeepsTheLoopClosedAndPassesACorrectStore(t *testing.T) {
	e, win := runEngine(t, &mapStore{m: map[string]string{}})
	if win.ok() == 0 || win.failed != 0 {
		t.Fatalf("%d completed, %d failed", win.ok(), win.failed)
	}
	var issued uint64
	for _, d := range e.drivers {
		issued += d.next.Load()
	}
	// Everything issued has completed: nothing lost, nothing duplicated.
	if issued != win.ok() {
		t.Errorf("issued %d operations, completed %d", issued, win.ok())
	}
	recorded, violations := e.check.finish()
	if len(violations) != 0 {
		t.Errorf("a correct store was reported: %v", violations)
	}
	if recorded == 0 {
		t.Error("no canary history was recorded")
	}
}

func TestCheckerCatchesAForeignValue(t *testing.T) {
	e, _ := runEngine(t, &mapStore{m: map[string]string{}, corrupt: true})
	_, violations := e.check.finish()
	if len(violations) == 0 {
		t.Fatal("a read returning a value written to another key went unnoticed")
	}
	if !strings.Contains(violations[0], "k9999") {
		t.Errorf("violation %q does not name the foreign value", violations[0])
	}
}

func TestCheckerCatchesAStaleCanaryRead(t *testing.T) {
	g := gen.New(gen.Mix{Seed: 1, Keys: 1, ReadFrac: 0.5})
	e := newEngine(g, []sut.Submitter{&mapStore{}}, nil, 1, nil, 1)
	c := e.check
	// Two writes complete one after the other, then a read returns the
	// first: not linearizable.
	var writes []gen.Op
	var idx []uint64
	for i := uint64(0); len(writes) < 2; i++ {
		if op := g.Op(0, i); !op.Read {
			writes, idx = append(writes, op), append(idx, i)
		}
	}
	e.drivers[0].next.Store(idx[1] + 1)
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	h := c.invoke(0, writes[0], at(0))
	c.complete(h, writes[0], "k0000", sut.Result{Order: 1}, at(1))
	h = c.invoke(0, writes[1], at(2))
	c.complete(h, writes[1], "k0000", sut.Result{Order: 2}, at(3))
	read := gen.Op{Read: true}
	h = c.invoke(0, read, at(4))
	c.complete(h, read, "k0000", sut.Result{Value: writes[0].Value, Order: 1}, at(5))
	if _, violations := c.finish(); len(violations) == 0 {
		t.Fatal("a stale read on a canary key went unnoticed")
	}
}

// TestMedianOfWindowsArithmetic builds windows by hand: every figure is
// the median over the seven the host left alone, with the host's
// slowdown divided out on a host-bound workload and not on another.
func TestMedianOfWindowsArithmetic(t *testing.T) {
	build := func(hostBound bool) measured {
		m := measured{w: Workload{HostBound: hostBound}}
		m.marks = append(m.marks, sample{at: time.Now()})
		add := func(n, ms int, stolenTicks uint64) {
			w := window{slowdown: 1.25}
			for j := 0; j < n; j++ {
				lat := int64(time.Duration(ms) * time.Millisecond)
				if j%2 == 0 {
					w.readNs = append(w.readNs, lat)
				} else {
					w.writeNs = append(w.writeNs, 2*lat)
				}
			}
			w.reads, w.writes = uint64(len(w.readNs)), uint64(len(w.writeNs))
			w.digest()
			if w.readNs != nil || w.writeNs != nil {
				t.Fatal("digest must free the samples")
			}
			m.windows = append(m.windows, w)
			prev := m.marks[len(m.marks)-1]
			m.marks = append(m.marks, sample{
				at: prev.at.Add(time.Second), cpu: prev.cpu + time.Duration(n)*10*time.Microsecond, steal: prev.steal + stolenTicks,
			})
		}
		// Window i completes 100(i+1) operations in its second, reads in
		// i+1 ms; between them, two seconds of which the host stole a fifth
		// (20 ticks of 10 ms on each of the processors).
		for i := 0; i < 7; i++ {
			add(100*(i+1), i+1, 0)
			if i == 2 || i == 4 {
				add(10, 50, uint64(20*runtime.NumCPU()))
			}
		}
		return m
	}
	if kept := build(true).clean(); len(kept) != 7 || kept[3] != 4 {
		t.Fatalf("clean windows %v, want the seven without steal", kept)
	}
	// The middle window completes 400 operations, reads in 4 ms and
	// writes in 8 ms, at 10 us of CPU each.
	for _, c := range []struct {
		hostBound             bool
		ops, cpu, read, write float64
	}{
		{true, 500, 8, 3200, 6400},
		{false, 400, 10, 4000, 8000},
	} {
		vals, _ := build(c.hostBound).endToEnd()
		got := []float64{vals["ops_per_s"], vals["cpu_us_per_op"], vals["read_p50_us"], vals["write_p50_us"]}
		want := []float64{c.ops, c.cpu, c.read, c.write}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*want[i] {
				t.Errorf("host-bound %v: ops/s, CPU, read and write p50 %v, want %v", c.hostBound, got, want)
				break
			}
		}
	}
}

// TestHostProbeMeasures runs the probe for a few bursts: the slowdown is
// a positive number near 1, and take forgets the bursts.
func TestHostProbeMeasures(t *testing.T) {
	p := startHostProbe()
	time.Sleep(3*probeEvery + probeEvery/2)
	p.close()
	if s := p.take(); s < 0.2 || s > 20 {
		t.Errorf("slowdown %v after three bursts, want within a factor of a few of 1", s)
	}
	if s := p.take(); s != 0 {
		t.Errorf("slowdown %v with no burst measured, want 0", s)
	}
	if got, want := stolen(100, 110, time.Second), 0.1/float64(runtime.NumCPU()); math.Abs(got-want) > 1e-12 {
		t.Errorf("10 ticks in a second are a tenth of one processor: stolen share %v, want %v", got, want)
	}
}

func TestWindowsAndWarmUp(t *testing.T) {
	if windows(25) != 25 || windows(0.5) != 1 {
		t.Errorf("windows(25)=%d windows(0.5)=%d, want 25 and 1", windows(25), windows(0.5))
	}
	if w := warmUp(24); w != 3*time.Second {
		t.Errorf("warm-up for 24 s is %v, want 3s", w)
	}
}

// TestManifestDeclaresExactlyWhatIsPrinted holds BENCHMARK.json against
// the program's own metric list, and Check against both kinds of
// mismatch.
func TestManifestDeclaresExactlyWhatIsPrinted(t *testing.T) {
	man, err := ReadManifest(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(Workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(man.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if man.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in the manifest, %q in the program", i, man.Workloads[i].Name, w.Name)
		}
	}
	full := func(names []string) map[string]Metric {
		out := map[string]Metric{}
		for _, n := range names {
			out[n] = Metric{Value: 1, Unit: Units[n]}
		}
		return out
	}
	e2e, layers := full(EndToEnd), full(PerLayer())
	if err := man.Check(false, e2e); err != nil {
		t.Error(err)
	}
	if err := man.Check(true, layers); err != nil {
		t.Error(err)
	}
	for _, d := range man.EndToEnd {
		if d.Better != Better(d.Name) {
			t.Errorf("%s is better %s in the manifest, %s in the program", d.Name, d.Better, Better(d.Name))
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s has bound %v, want within (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range man.PerLayer {
		if d.Better != Better(d.Name) {
			t.Errorf("%s is better %s in the manifest, %s in the program", d.Name, d.Better, Better(d.Name))
		}
	}

	// The result JSON round-trips: an extra metric and a missing one both fail.
	e2e["surprise"] = Metric{Value: 1, Unit: "us"}
	if err := man.Check(false, e2e); err == nil || !strings.Contains(err.Error(), "surprise is printed but not declared") {
		t.Errorf("an undeclared metric passed: %v", err)
	}
	delete(e2e, "surprise")
	delete(e2e, "setup_s")
	if err := man.Check(false, e2e); err == nil || !strings.Contains(err.Error(), "setup_s is declared but not printed") {
		t.Errorf("a missing metric passed: %v", err)
	}
	layers["codec.bytes_per_msg"] = Metric{Value: 1, Unit: "KiB"}
	if err := man.Check(true, layers); err == nil || !strings.Contains(err.Error(), "codec.bytes_per_msg is printed in") {
		t.Errorf("a metric under another unit passed: %v", err)
	}
}
