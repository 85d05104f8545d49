// Command paper-tables regenerates every table and figure of "Revisiting
// Hierarchical Quorum Systems" (Preguiça & Martins, ICDCS 2001), printing
// each measured value next to the published one (in parentheses).
//
// Usage:
//
//	paper-tables [-table N]
//
// Without -table (or with -table 0) it regenerates everything; -table 1
// to 5 selects one table, and any other value exits 2. Every failure
// probability of Tables 1–3 is exact: a closed form, or a decision diagram
// (a construction's quorum gate, or Paths' and Y's graphs).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hquorum/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "regenerate only this table (1-5); 0 = everything including figures")
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
	run(os.Stdout, *table)
}

// run writes the selected table (0 = every table and both figures) to w.
func run(w io.Writer, table int) {
	all := table == 0
	if all || table == 1 {
		fmt.Fprintln(w, experiments.Table1().Render())
	}
	if all || table == 2 {
		fmt.Fprintln(w, experiments.Table2().Render())
	}
	if all || table == 3 {
		fmt.Fprintln(w, experiments.Table3().Render())
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
