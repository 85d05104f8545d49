// Command paper-tables regenerates every table and figure of "Revisiting
// Hierarchical Quorum Systems" (Preguiça & Martins, ICDCS 2001), printing
// each measured value next to the published one (in parentheses).
//
// Usage:
//
//	paper-tables [-table N] [-quick] [-progress] [-cache-dir DIR]
//
// Without -table it regenerates everything. -quick replaces the exact
// 2²⁵..2²⁸ subset enumerations of Table 3's h-T-grid(25), Paths(25) and
// Y(28) columns with Monte Carlo estimates (the exact run takes on the
// order of a minute per column on one core). -progress prints live sweep
// progress (blocks done / total with elapsed time) during the big exact
// enumerations. -cache-dir persists transversal counts as JSON under DIR,
// so repeated exact runs are pay-once.
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
	cacheDir := flag.String("cache-dir", "", "persist transversal counts under this directory (pay-once exact sweeps)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if *cacheDir != "" {
		analysis.SetDiskCacheDir(*cacheDir)
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
