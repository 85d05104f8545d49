// Command mutexsim runs quorum-based distributed mutual exclusion on the
// simulated cluster and reports throughput, message cost and latency —
// the protocol-level comparison the paper's systems are built for.
//
// Usage:
//
//	mutexsim -system htriang -k 5 -requests 3 -crash 2 -seed 7
//	mutexsim -system htgrid -rows 3 -cols 3 -nemesis crash-storm -seed 7
//
// Supported -system values: htriang (-k), htgrid (-rows -cols), hgrid
// (-rows -cols), majority (-n), cwlog (-n).
//
// -nemesis replays a scripted fault schedule (crash-storm,
// rolling-restart, link-flap, minority-partition, churn) into the run
// and checks the recorded hold intervals for overlap; it replaces the
// static -crash fault model, and crashes mid-hold truncate the victim's
// interval instead of tripping the naive holding flag.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/cwlog"
	"hquorum/internal/dmutex"
	"hquorum/internal/hgrid"
	"hquorum/internal/htgrid"
	"hquorum/internal/htriang"
	"hquorum/internal/majority"
	"hquorum/internal/nemesis"
	"hquorum/internal/quorum"
)

func main() {
	system := flag.String("system", "htriang", "quorum construction: htriang|htgrid|hgrid|majority|cwlog")
	k := flag.Int("k", 5, "triangle rows (htriang)")
	rows := flag.Int("rows", 4, "grid rows (htgrid/hgrid)")
	cols := flag.Int("cols", 4, "grid cols (htgrid/hgrid)")
	n := flag.Int("n", 15, "universe size (majority/cwlog)")
	requests := flag.Int("requests", 3, "critical sections per node")
	crash := flag.Int("crash", 0, "number of nodes to crash before the run")
	seed := flag.Int64("seed", 1, "simulation seed")
	hold := flag.Duration("hold", 2*time.Millisecond, "critical-section hold time")
	think := flag.Duration("think", 5*time.Millisecond, "think time between requests")
	nemesisName := flag.String("nemesis", "", "replay a fault schedule: crash-storm|rolling-restart|link-flap|minority-partition|churn (replaces -crash; workload pacing is derived from the schedule)")
	flag.Parse()

	// check rejects a flag value out of range: exit 2, one line naming it.
	check := func(ok bool, name string, v any, want string) {
		if !ok {
			fmt.Fprintf(os.Stderr, "mutexsim: -%s %v: must be %s\n", name, v, want)
			os.Exit(2)
		}
	}
	var sys quorum.System
	switch *system {
	case "htriang":
		check(*k >= 1, "k", *k, ">= 1")
		sys = htriang.New(*k)
	case "htgrid":
		check(*rows >= 1, "rows", *rows, ">= 1")
		check(*cols >= 1, "cols", *cols, ">= 1")
		sys = htgrid.Auto(*rows, *cols)
	case "hgrid":
		check(*rows >= 1, "rows", *rows, ">= 1")
		check(*cols >= 1, "cols", *cols, ">= 1")
		sys = hgrid.NewRW(hgrid.Auto(*rows, *cols))
	case "majority":
		check(*n >= 1, "n", *n, ">= 1")
		sys = majority.New(*n)
	case "cwlog":
		check(*n >= 1, "n", *n, ">= 1")
		s, err := cwlog.Log(*n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sys = s
	default:
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}
	check(*requests >= 1, "requests", *requests, ">= 1")
	check(*crash >= 0, "crash", *crash, ">= 0")
	check(*hold >= 0, "hold", *hold, ">= 0")
	check(*think >= 0, "think", *think, ">= 0")

	size := sys.Universe()
	if *nemesisName != "" {
		if *crash > 0 {
			fmt.Fprintln(os.Stderr, "-nemesis and -crash are mutually exclusive")
			os.Exit(2)
		}
		runNemesis(sys, *nemesisName, *seed, *requests)
		return
	}

	net := cluster.New(cluster.WithSeed(*seed), cluster.WithLatency(time.Millisecond, 8*time.Millisecond))
	if *crash >= size {
		fmt.Fprintln(os.Stderr, "cannot crash the whole cluster")
		os.Exit(2)
	}

	// Crash a random subset; requesters are the survivors.
	rng := rand.New(rand.NewSource(*seed))
	perm := rng.Perm(size)
	crashed := map[cluster.NodeID]bool{}
	for _, idx := range perm[:*crash] {
		crashed[cluster.NodeID(idx)] = true
	}

	holding := false
	entries := 0
	var lastRelease time.Duration
	var nodes []*dmutex.Node
	for i := 0; i < size; i++ {
		id := cluster.NodeID(i)
		wl := dmutex.Workload{Count: *requests, Hold: *hold, Think: *think}
		if crashed[id] {
			wl = dmutex.Workload{}
		}
		node, err := dmutex.NewNode(id, dmutex.Config{
			System:   sys,
			Workload: wl,
			OnAcquire: func(id cluster.NodeID, at time.Duration) {
				if holding {
					fmt.Println("FATAL: mutual exclusion violated")
					os.Exit(1)
				}
				holding = true
				entries++
			},
			OnRelease: func(id cluster.NodeID, at time.Duration) {
				holding = false
				lastRelease = at
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := net.AddNode(id, node); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		nodes = append(nodes, node)
	}
	for _, node := range nodes {
		if err := node.Start(net); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for id := range crashed {
		net.Crash(id)
	}

	net.Run(10 * time.Minute)

	var totalWait time.Duration
	retries, stuck := 0, 0
	for i, node := range nodes {
		totalWait += node.WaitTotal
		retries += node.Retries
		if !crashed[cluster.NodeID(i)] && !node.Done() {
			stuck++
		}
	}
	fmt.Printf("system:            %s (%d nodes, quorums %d..%d)\n",
		sys.Name(), size, sys.MinQuorumSize(), sys.MaxQuorumSize())
	fmt.Printf("crashed nodes:     %d\n", *crash)
	fmt.Printf("critical sections: %d\n", entries)
	fmt.Printf("virtual time:      %v\n", lastRelease)
	fmt.Printf("messages:          %d (%.1f per entry)\n", net.Messages(),
		float64(net.Messages())/float64(max(entries, 1)))
	fmt.Printf("retries:           %d\n", retries)
	fmt.Printf("avg wait:          %v\n", totalWait/time.Duration(max(entries, 1)))
	if stuck > 0 {
		fmt.Printf("STUCK NODES:       %d\n", stuck)
		os.Exit(1)
	}
}

// runNemesis replays a scripted fault schedule and checks the recorded
// hold history for mutual-exclusion violations.
func runNemesis(sys quorum.System, name string, seed int64, requests int) {
	var sched nemesis.Schedule
	found := false
	for _, s := range nemesis.DefaultSchedules(sys.Universe()) {
		if s.Name == name {
			sched, found = s, true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown nemesis schedule %q\n", name)
		os.Exit(2)
	}
	res, err := nemesis.RunMutex(nemesis.MutexRun{
		System:   sys,
		Seed:     seed,
		Schedule: sched,
		Count:    requests,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("system:            %s (%d nodes, quorums %d..%d)\n",
		sys.Name(), sys.Universe(), sys.MinQuorumSize(), sys.MaxQuorumSize())
	fmt.Printf("nemesis:           %s (%d actions, horizon %v)\n", sched.Name, len(sched.Actions), sched.Horizon)
	fmt.Printf("critical sections: %d\n", res.Entries)
	fmt.Printf("failed acquires:   %d\n", res.Failures)
	fmt.Printf("hold intervals:    %d\n", len(res.Intervals))
	fmt.Printf("messages:          %d (%d dropped)\n", res.Messages, res.Dropped)
	if len(res.Violations) > 0 {
		fmt.Printf("FATAL: mutual exclusion violated: %v\n", res.Violations[0])
		os.Exit(1)
	}
	fmt.Println("mutual exclusion:  ok")
}
