// Command paper-tables regenerates every table and figure of "Revisiting
// Hierarchical Quorum Systems" (Preguiça & Martins, ICDCS 2001), printing
// each measured value next to the published one (in parentheses).
//
// Usage:
//
//	paper-tables [-table N] [-quick] [-progress]
//
// Without -table (or with -table 0) it regenerates everything; -table 1
// to 5 selects one table, and any other value exits 2. -quick replaces the
// exact 2²⁵ and 2²⁸ subset enumerations of Table 3's Paths(25) and Y(28)
// columns with Monte Carlo estimates; every gated column, h-T-grid(25)
// among them, is exact either way, from its decision diagram (the exact
// -table 3, Y(28)'s 2²⁸ sets above all, takes 7–9 s of wall clock on a
// 2-vCPU x86-64 machine).
// -progress prints live sweep progress (blocks done / total with elapsed
// time) during the big exact enumerations.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hquorum/internal/analysis"
	"hquorum/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "regenerate only this table (1-5); 0 = everything including figures")
	quick := flag.Bool("quick", false, "Monte Carlo for the expensive exact enumerations of Table 3")
	progress := flag.Bool("progress", false, "print live enumeration progress to stderr")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *table < 0 || *table > 5 {
		fmt.Fprintf(os.Stderr, "paper-tables: -table %d: want 0 (everything) or 1-5\n", *table)
		os.Exit(2)
	}
	if *progress {
		analysis.SetProgress(func(done, total uint64, elapsed time.Duration) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d blocks (%.0f%%) %s  ",
				done, total, 100*float64(done)/float64(total), elapsed.Round(time.Second))
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		})
	}

	run(os.Stdout, *table, *quick)
}

// run writes the selected table (0 = every table and both figures) to w.
func run(w io.Writer, table int, quick bool) {
	all := table == 0
	if all || table == 1 {
		fmt.Fprintln(w, experiments.Table1().Render())
	}
	if all || table == 2 {
		fmt.Fprintln(w, experiments.Table2().Render())
	}
	if all || table == 3 {
		if !quick {
			fmt.Fprintln(w, "(Table 3 exact mode: enumerating up to 2^28 subsets; use -quick to sample instead)")
		}
		fmt.Fprintln(w, experiments.Table3(quick).Render())
	}
	if all || table == 4 {
		fmt.Fprintln(w, experiments.RenderTable4(experiments.Table4()))
	}
	if all || table == 5 {
		fmt.Fprintln(w, experiments.RenderTable5(experiments.Table5()))
	}
	if all {
		fmt.Fprintln(w, experiments.Figure1())
		fmt.Fprintln(w, experiments.Figure2())
	}
}
