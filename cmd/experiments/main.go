// Command experiments regenerates the SLUGGER paper's tables and
// figures on the synthetic dataset analogues.
//
// Usage:
//
//	experiments -run all [-scale 0.2] [-trials 1] [-t 20] [-seed 0] [-workers 4]
//	experiments -run fig5a,table3 -datasets PR,FA
//	experiments -run fig5a -algos slugger,sweg
//
// Available experiments: fig5a fig5b fig1b table3 table4 table5 fig6
// decomp algos theorem1 ablation bytes (or "all"). -datasets also picks
// the graphs algos runs on (default FA). An unknown experiment id,
// dataset or algorithm exits with status 2 and the list, before
// anything runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/pkg/slug"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the experiments'
// tables to stdout and problems to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runList  = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale    = fs.Float64("scale", 0.2, "dataset scale factor (1.0 = default analogue size)")
		trials   = fs.Int("trials", 1, "trials averaged per measurement (paper: 5)")
		t        = fs.Int("t", 20, "iterations T for SLUGGER and SWeG")
		seed     = fs.Int64("seed", 0, "base random seed")
		workers  = fs.Int("workers", 1, "SLUGGER candidate-group pipeline workers (results are identical for any value)")
		dataList = fs.String("datasets", "", "restrict table experiments and algos (default FA) to these datasets (comma-separated)")
		algoList = fs.String("algos", "", "restrict comparison experiments to these pkg/slug algorithms (comma-separated canonical names, e.g. slugger,sweg)")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	algoNames, ok1 := known(*algoList, "algorithm", slug.Algorithms(), stderr)
	names, ok2 := known(*dataList, "dataset", datasets.Names(), stderr)
	ids, ok3 := known(*runList, "experiment", append(experiments.Names(), "all"), stderr)
	if !ok1 || !ok2 || !ok3 {
		return 2
	}
	opt := experiments.Options{
		Scale:   *scale,
		Seed:    *seed,
		Trials:  *trials,
		T:       *t,
		Workers: *workers,
		Algos:   algoNames,
		Out:     stdout,
	}
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	if want["all"] {
		for _, id := range experiments.Names() {
			want[id] = true
		}
	}

	maybe := func(id string, f func()) {
		if want[id] {
			f()
			fmt.Fprintln(stdout)
		}
	}
	maybe("fig5a", func() { experiments.Fig5a(opt) })
	maybe("fig5b", func() { experiments.Fig5b(opt) })
	maybe("fig1b", func() {
		pts := experiments.Fig1b(opt)
		fmt.Fprintf(stdout, "linear fit R^2 = %.4f\n", experiments.LinearFitR2(pts))
	})
	maybe("table3", func() { experiments.Table3(opt, names) })
	maybe("table4", func() { experiments.Table4(opt, names) })
	maybe("table5", func() { experiments.Table5(opt, names) })
	maybe("fig6", func() { experiments.Fig6(opt) })
	maybe("decomp", func() { experiments.Decompression(opt, names) })
	maybe("algos", func() {
		on := names
		if on == nil {
			on = []string{"FA"}
		}
		for i, name := range on {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			experiments.AlgorithmsOnSummary(opt, name)
		}
	})
	maybe("theorem1", func() { experiments.Theorem1(opt, 24, 3) })
	maybe("ablation", func() { experiments.Ablation(opt, "PR") })
	maybe("bytes", func() { experiments.Bytes(opt, names) })
	return 0
}

// known splits a comma-separated list, or returns nil for an empty one.
// A name not in valid is reported with the valid ones on stderr, and ok
// is false.
func known(list, what string, valid []string, stderr io.Writer) (names []string, ok bool) {
	if list == "" {
		return nil, true
	}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(valid, name) {
			fmt.Fprintf(stderr, "unknown %s %q; available: %s\n", what, name, strings.Join(valid, " "))
			return nil, false
		}
		names = append(names, name)
	}
	return names, true
}
