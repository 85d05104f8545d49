// Availability study: sweep the individual crash probability p and the
// system size n across all seven constructions, emitting CSV series for
// plotting — the paper's §6 comparison extended into curves.
//
// Usage:
//
//	availability-study           # p-sweep at ~15 nodes + n-sweep at p=0.1
//	availability-study -sweep p  # p-sweep only
//	availability-study -sweep n  # n-sweep only
package main

import (
	"flag"
	"fmt"
	"os"

	"hquorum/internal/analysis"
	"hquorum/internal/cwlog"
	"hquorum/internal/hgrid"
	"hquorum/internal/hqs"
	"hquorum/internal/htgrid"
	"hquorum/internal/htriang"
	"hquorum/internal/majority"
	"hquorum/internal/paths"
	"hquorum/internal/ysys"
)

func main() {
	sweep := flag.String("sweep", "both", "which sweep to run: p, n or both")
	flag.Parse()

	if *sweep == "p" || *sweep == "both" {
		pSweep()
	}
	if *sweep == "n" || *sweep == "both" {
		nSweep()
	}
	if *sweep != "p" && *sweep != "n" && *sweep != "both" {
		fmt.Fprintf(os.Stderr, "unknown sweep %q\n", *sweep)
		os.Exit(2)
	}
}

// pSweep: failure probability as a function of p at the ~15-node scale
// (exact transversal counts for every system, from their decision diagrams).
func pSweep() {
	cw, err := cwlog.Log(14)
	if err != nil {
		panic(err)
	}
	systems := []analysis.Availability{
		majority.New(15),
		hqs.Grouped(5, 3),
		cw,
		htgrid.Auto(4, 4),
		paths.New(2),
		ysys.New(5),
		htriang.New(5),
	}
	names := []string{"majority15", "hqs15", "cwlog14", "htgrid16", "paths13", "y15", "htriang15"}

	fmt.Print("p")
	for _, n := range names {
		fmt.Printf(",%s", n)
	}
	fmt.Println()
	counts := make([][]uint64, len(systems))
	for i, sys := range systems {
		counts[i] = analysis.TransversalCounts(sys)
	}
	for p := 0.02; p <= 0.5001; p += 0.02 {
		fmt.Printf("%.2f", p)
		for i := range systems {
			fmt.Printf(",%.8f", analysis.Failure(counts[i], p))
		}
		fmt.Println()
	}
}

// nSweep: failure probability at p = 0.1 as the system grows, using the
// exact structural recursions (no enumeration), demonstrating §4/§5's
// asymptotic-availability claims: F → 0 for the hierarchical systems.
func nSweep() {
	fmt.Println("n,htriang,hgrid,hqs3ary,cwlog,majority")
	type point struct {
		k      int // triangle rows
		side   int // square grid side
		levels int // hqs levels
	}
	pts := []point{{4, 3, 2}, {6, 4, 2}, {8, 6, 3}, {11, 8, 3}, {13, 9, 4}, {16, 11, 4}, {20, 14, 4}}
	const p = 0.1
	for _, pt := range pts {
		tri := htriang.New(pt.k)
		hg := hgrid.Auto(pt.side, pt.side)
		h := hqs.Uniform(pt.levels, 3)
		cw, err := cwlog.Log(nearestFullWall(tri.Universe()))
		if err != nil {
			panic(err)
		}
		maj := majority.New(tri.Universe()/2*2 + 1)
		fmt.Printf("%d,%.9f,%.9f,%.9f,%.9f,%.9f\n",
			tri.Universe(),
			tri.FailureProbability(p),
			1-hg.Dist(1-p).Both,
			h.FailureProbability(p),
			cw.FailureProbability(p),
			maj.FailureProbability(p),
		)
	}
}

// nearestFullWall returns the complete-wall size (no truncated last row)
// closest to n, so the CWlog series is monotone in the way the
// construction intends.
func nearestFullWall(n int) int {
	total := 0
	for i := 1; ; i++ {
		w := 1
		for v := i; v > 1; v >>= 1 {
			w++
		}
		if total+w > n {
			if n-total <= total+w-n && total > 0 {
				return total
			}
			return total + w
		}
		total += w
	}
}
