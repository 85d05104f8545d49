// Replicated register on the hierarchical grid (the protocol of
// Kumar–Cheung '91 the paper builds on): reads use row-cover quorums,
// writes use full-line quorums; any row-cover intersects any full-line,
// so completed writes are never lost — even across replica crashes.
package main

import (
	"fmt"
	"time"

	"hquorum"
)

func main() {
	// A 4×4 hierarchical grid of replicas: reads touch 4 nodes, writes 4,
	// read-write updates 8.
	grid := hquorum.ClusterParams{
		Flavor: hquorum.FlavorHGrid, Rows: 4, Cols: 4,
		Members: hquorum.MemberRange(0, 16),
	}
	net := hquorum.NewNetwork(hquorum.WithSeed(11))

	var results []hquorum.RegisterResult
	record := func(r hquorum.RegisterResult) {
		results = append(results, r)
		fmt.Printf("t=%-12v node %-2d %-11s -> %q (version %d.%d, %d retries)\n",
			r.At, r.Node, r.Kind, r.Value, r.Version.Counter, r.Version.Writer, r.Retries)
	}

	var replicas []*hquorum.Replica
	for i := 0; i < 16; i++ {
		id := hquorum.NodeID(i)
		// Each replica holds its own view of the cluster configuration.
		epochs, err := hquorum.NewEpochStore(16, grid)
		if err != nil {
			panic(err)
		}
		r, err := hquorum.NewReplica(id, hquorum.ReplicaConfig{Epochs: epochs})
		if err != nil {
			panic(err)
		}
		if err := net.AddNode(id, r); err != nil {
			panic(err)
		}
		// Client operations enter through Submit; the wake schedules the
		// replica's start token on the simulated network.
		r.SetWake(func() { net.StartTimer(id, 0, r.StartToken()) })
		replicas = append(replicas, r)
	}
	// submit runs ops on r in order, each from the previous one's callback.
	var submit func(r *hquorum.Replica, ops ...hquorum.RegisterOp)
	submit = func(r *hquorum.Replica, ops ...hquorum.RegisterOp) {
		if len(ops) > 0 {
			r.Submit(ops[0], func(res hquorum.RegisterResult) {
				record(res)
				submit(r, ops[1:]...)
			})
		}
	}

	// Phase 1: two writes and a read from node 0.
	submit(replicas[0],
		hquorum.RegisterOp{Kind: hquorum.OpWrite, Value: "config-v1"},
		hquorum.RegisterOp{Kind: hquorum.OpWrite, Value: "config-v2"},
		hquorum.RegisterOp{Kind: hquorum.OpRead})
	net.Run(30 * time.Second)

	// Phase 2: crash three replicas, then read from the far corner of the
	// grid — the read quorum routes around the dead replicas and still
	// observes config-v2.
	fmt.Println("\ncrashing replicas 1, 6 and 11 ...")
	net.Crash(1)
	net.Crash(6)
	net.Crash(11)
	submit(replicas[15], hquorum.RegisterOp{Kind: hquorum.OpRead})
	net.Run(2 * time.Minute)

	last := results[len(results)-1]
	if last.Value != "config-v2" {
		panic("stale read after crash: " + last.Value)
	}
	fmt.Println("\nread after crashes still returns the latest committed write")
	fmt.Printf("total messages: %d\n", net.Messages())
}
