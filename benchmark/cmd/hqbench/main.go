// Command hqbench is the repository's benchmark: it boots the real
// store in-process, drives it from a seeded generator, checks that the
// outputs are correct, and prints every metric by name with its unit.
//
// With --workload it runs one workload, untraced (--trace 0: the
// end-to-end metrics) or traced (--trace 1: the per-layer metrics), and
// prints one JSON object as its last line. Without --workload it runs
// all four workloads both ways and prints a report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"hquorum/benchmark/internal/runner"
)

// Paths relative to the root of the checkout, where run.sh starts the
// program: the manifest, the directory for throwaway WAL files, and the
// directory for trace files.
const (
	manifestPath = "BENCHMARK.json"
	workDir      = ".bench_build/tmp"
	outDir       = "benchmark/out"
)

// errUsage marks a command-line mistake (exit code 2).
var errUsage = errors.New("usage: hqbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hqbench:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run (default: all four, untraced and traced)")
	seed := flag.Uint64("seed", 1, "workload generator seed")
	seconds := flag.Float64("seconds", 25, "measurement time of one run, in seconds")
	trace := flag.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	spread := flag.String("spread", "", "summarize the result files of repeat.sh in this directory and exit")
	stages := flag.Bool("stages", false, "internal: run as the stage-sampling child of a traced run")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errUsage
	}
	if *spread != "" {
		return summarize(*spread)
	}
	man, err := runner.ReadManifest(manifestPath)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	opt := runner.Options{Seed: *seed, Seconds: *seconds, WorkDir: workDir, OutDir: outDir, Self: self}

	if *workload == "" {
		return runAll(man, opt)
	}
	w, ok := runner.Find(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q: %w", *workload, errUsage)
	}
	if *stages {
		rep, err := runner.RunStages(w, opt)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	traced := *trace == 1
	res, err := runOne(man, w, opt, traced)
	if err != nil {
		return err
	}
	printReport(w.Name, traced, res)
	return json.NewEncoder(os.Stdout).Encode(result{res.Correct(), res.Attempted, res.Failed, res.Metrics})
}

// runOne runs one workload one way. A violated correctness gate is an
// error: no metrics are printed for a run whose outputs were wrong.
func runOne(man runner.Manifest, w runner.Workload, opt runner.Options, traced bool) (runner.Result, error) {
	run := runner.RunUntraced
	if traced {
		run = runner.RunTraced
	}
	res, err := run(w, opt)
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.Name, err)
	}
	if !res.Correct() {
		return res, fmt.Errorf("%s: correctness gate failed:\n  %s", w.Name, strings.Join(res.Violations, "\n  "))
	}
	if err := man.Check(traced, res.Metrics); err != nil {
		return res, fmt.Errorf("%s: %w", w.Name, err)
	}
	return res, nil
}

func runAll(man runner.Manifest, opt runner.Options) error {
	for _, w := range runner.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(man, w, opt, traced)
			if err != nil {
				return err
			}
			printReport(w.Name, traced, res)
		}
	}
	return nil
}

// printReport writes the human-readable form: every metric by name with
// its unit, end-to-end metrics in their fixed order, per-layer metrics
// sorted by layer.
func printReport(name string, traced bool, res runner.Result) {
	kind := "untraced, end-to-end metrics"
	if traced {
		kind = "traced, per-layer metrics"
	}
	fmt.Printf("== %s (%s): %d attempted, %d failed, correct=%v\n", name, kind, res.Attempted, res.Failed, res.Correct())
	for _, n := range res.Notes {
		fmt.Printf("   %s\n", n)
	}
	var names []string
	if traced {
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
	} else {
		names = runner.EndToEnd
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("   %-40s %16.4f %s\n", n, m.Value, m.Unit)
	}
}
