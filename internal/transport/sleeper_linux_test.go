package transport

import (
	"os"
	"testing"
	"time"

	"hquorum/internal/cluster"
)

// openFDs counts the process's open descriptors and, among them, the
// timerfds.
func openFDs(t *testing.T) (all, timerfds int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, e := range ents {
		target, err := os.Readlink("/proc/self/fd/" + e.Name())
		if err != nil {
			continue // the directory handle ReadDir itself held
		}
		all++
		if target == "anon_inode:[timerfd]" {
			timerfds++
		}
	}
	return all, timerfds
}

// pingAll starts a 3-node mesh, sends one message over each of its six
// links and waits for all of them.
func pingAll(t *testing.T, opts ...Option) *Mesh {
	t.Helper()
	sinks := []sink{make(sink, 2), make(sink, 2), make(sink, 2)}
	mesh, err := NewMesh([]cluster.Handler{sinks[0], sinks[1], sinks[2]}, append(opts, WithRegistry(hopRegistry()))...)
	if err != nil {
		t.Fatal(err)
	}
	mesh.Start()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				mesh.Node(i).send(cluster.NodeID(j), hopMsg{}, nil)
			}
		}
	}
	for _, s := range sinks {
		s.next(t)
		s.next(t)
	}
	return mesh
}

// TestTimerfdLifecycle: a hold timer's descriptor lives exactly as long
// as its writer. An undelayed mesh — every LAN workload, kvd — opens
// none; a delayed one opens one per link and Close returns every
// descriptor the mesh opened.
func TestTimerfdLifecycle(t *testing.T) {
	// The first mesh also warms the runtime's own lazily opened
	// descriptors (epoll, its wake-up eventfd) out of the baseline.
	lan := pingAll(t)
	if _, tfds := openFDs(t); tfds != 0 {
		t.Errorf("undelayed mesh holds %d timerfds", tfds)
	}
	lan.Close()

	before, _ := openFDs(t)
	wan := pingAll(t, WithLinkLatency(func(from, to cluster.NodeID) time.Duration { return 200 * time.Microsecond }))
	if _, tfds := openFDs(t); tfds != 6 {
		t.Errorf("delayed 3-node mesh holds %d timerfds after traffic on all 6 links", tfds)
	}
	wan.Close()
	if after, tfds := openFDs(t); after > before || tfds != 0 {
		t.Errorf("%d descriptors (%d timerfds) open after Close, %d before the mesh", after, tfds, before)
	}
}

// TestHoldAllocatesNothing: a hold on the timerfd is three system calls
// (arm, a read that finds nothing yet, the read after the wake) and a
// park, no garbage — the per-hold time.Timer it replaced was the
// delayed link's only per-message allocation besides the timedMsg wrap.
func TestHoldAllocatesNothing(t *testing.T) {
	s := newSleeper(make(chan struct{}))
	defer s.close()
	if _, ok := s.(*fdSleeper); !ok {
		t.Skip("timerfd_create failed, running on the fallback")
	}
	if n := testing.AllocsPerRun(100, func() { s.sleep(time.Microsecond) }); n != 0 {
		t.Fatalf("%v allocs per sleep", n)
	}
}
