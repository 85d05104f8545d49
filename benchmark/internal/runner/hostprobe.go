package runner

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"hquorum/benchmark/internal/stats"
)

// The sandbox this benchmark runs in is a two-core share of a busy host.
// Its neighbours leave arithmetic alone and slow memory: a loop that
// misses the cache costs 17 ns an access in a quiet minute and 21 to
// 26 ns in a loud one, for minutes at a time, and the store's throughput
// and CPU per operation move in step with it (lan-mixed: 142k ops/s at
// 17.1 ns, 110k at 21.2 ns; over twelve runs ops/s spread 16 %, ops/s
// times ns per access 2 %). No choice of windows inside a 25 s run
// escapes a phase that outlasts the run, so the run measures the phase
// and divides it out.
//
// hostProbe is that measurement: every probeEvery it makes probeAccesses
// read-modify-writes at random places of a buffer too large for the
// cache to hold beside the store's own data, on a thread of its own, and
// takes the thread's CPU time for them, which the scheduler's choices do
// not enter. It costs 2 % of one core.
const (
	probeWords    = 1 << 20 // 8 MiB
	probeAccesses = 100_000
	probeEvery    = 100 * time.Millisecond
	// nominalAccessNs is one access on this sandbox at its quietest. It
	// only fixes the scale of the corrected metrics: on another machine
	// every one of them moves by one common factor.
	nominalAccessNs = 17.0
)

// probeBuf is at package level on purpose. The loop over it in run is
// the one that was held against the store (README, "Host slowdown"):
// through a package-level slice the compiler reloads the slice header
// after every store, the misses overlap less, and the loop follows the
// store's speed to 2-5 %. The same loop over a local slice runs a
// quarter faster and follows it half as well, and a pure pointer chase
// no better, so the form stays as measured.
var probeBuf []uint64

type hostProbe struct {
	mu       sync.Mutex
	accessNs []float64 // one entry per burst since the last reset
	stop     chan struct{}
	done     chan struct{}
}

// threadCPU is the CPU time of the calling thread. getrusage's figure
// for a thread is only brought up to date at scheduler ticks, which are
// longer than a burst; this clock is exact.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// Every Linux has this clock, so the call cannot fail.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func startHostProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *hostProbe) run() {
	defer close(p.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if probeBuf == nil {
		probeBuf = make([]uint64, probeWords)
		for i := range probeBuf {
			probeBuf[i] = uint64(i) // touch every page before the first burst
		}
	}
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	x := uint64(1)
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		t0 := threadCPU()
		for i := 0; i < probeAccesses; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			probeBuf[(x>>33)%probeWords] += x
		}
		ns := float64(threadCPU()-t0) / probeAccesses
		p.mu.Lock()
		p.accessNs = append(p.accessNs, ns)
		p.mu.Unlock()
	}
}

// take returns the slowdown since the last take and forgets the bursts
// it is made from: the median cost of an access over the nominal cost,
// 1 on a quiet host and 1.2 to 1.5 on a loud one. With no burst to go
// by it returns 0.
func (p *hostProbe) take() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	ns := p.accessNs
	p.accessNs = nil
	return stats.Median(ns) / nominalAccessNs
}

func (p *hostProbe) close() {
	close(p.stop)
	<-p.done
}

// The host also takes the processors away outright: about once an hour,
// for a minute or two, 10 to 60 % of both. lan-mixed then falls from
// 140k to 41k ops/s with its CPU per operation where it was, and three
// consecutive runs land inside one episode. The kernel counts the time
// as steal, so a window in which more than stolenShare of the
// processors was stolen is left out of the run's medians (measure).
const stolenShare = 0.02

// stealTicks is the time the host has run something else while this
// machine had work, summed over the processors, in the kernel's 10 ms
// ticks. Where the kernel does not say, it is 0 and no window is stolen.
func stealTicks() uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	// The first line is "cpu user nice system idle iowait irq softirq steal ...".
	var f [8]uint64
	if _, err := fmt.Sscanf(string(data), "cpu %d %d %d %d %d %d %d %d", &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]); err != nil {
		return 0
	}
	return f[7]
}

// stolen is the share of the processors the host took between two
// readings of stealTicks that lie wall apart.
func stolen(before, after uint64, wall time.Duration) float64 {
	const tick = 10 * time.Millisecond
	return float64(after-before) * tick.Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
}
