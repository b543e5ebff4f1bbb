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
// decomp algos theorem1 ablation bytes (or "all"). An unknown id exits
// with status 2 and the list, before anything runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/pkg/slug"
)

func main() {
	var (
		run      = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale    = flag.Float64("scale", 0.2, "dataset scale factor (1.0 = default analogue size)")
		trials   = flag.Int("trials", 1, "trials averaged per measurement (paper: 5)")
		t        = flag.Int("t", 20, "iterations T for SLUGGER and SWeG")
		seed     = flag.Int64("seed", 0, "base random seed")
		workers  = flag.Int("workers", 1, "SLUGGER candidate-group pipeline workers (results are identical for any value)")
		dataList = flag.String("datasets", "", "restrict table experiments to these datasets (comma-separated)")
		algoList = flag.String("algos", "", "restrict comparison experiments to these pkg/slug algorithms (comma-separated canonical names, e.g. slugger,sweg)")
	)
	flag.Parse()

	opt := experiments.Options{
		Scale:   *scale,
		Seed:    *seed,
		Trials:  *trials,
		T:       *t,
		Workers: *workers,
		Out:     os.Stdout,
	}
	if *algoList != "" {
		for _, name := range strings.Split(*algoList, ",") {
			name = strings.TrimSpace(name)
			if _, ok := slug.Lookup(name); !ok {
				fmt.Fprintf(os.Stderr, "unknown algorithm %q; available: %s\n",
					name, strings.Join(slug.Algorithms(), " "))
				os.Exit(2)
			}
			opt.Algos = append(opt.Algos, name)
		}
	}
	var names []string
	if *dataList != "" {
		names = strings.Split(*dataList, ",")
	}

	want := map[string]bool{}
	if *run == "all" {
		for _, id := range experiments.Names() {
			want[id] = true
		}
	} else {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			if !slices.Contains(experiments.Names(), id) {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s all\n",
					id, strings.Join(experiments.Names(), " "))
				os.Exit(2)
			}
			want[id] = true
		}
	}

	maybe := func(id string, f func()) {
		if want[id] {
			f()
			fmt.Println()
		}
	}
	maybe("fig5a", func() { experiments.Fig5a(opt) })
	maybe("fig5b", func() { experiments.Fig5b(opt) })
	maybe("fig1b", func() {
		pts := experiments.Fig1b(opt)
		fmt.Printf("linear fit R^2 = %.4f\n", experiments.LinearFitR2(pts))
	})
	maybe("table3", func() { experiments.Table3(opt, names) })
	maybe("table4", func() { experiments.Table4(opt, names) })
	maybe("table5", func() { experiments.Table5(opt, names) })
	maybe("fig6", func() { experiments.Fig6(opt) })
	maybe("decomp", func() { experiments.Decompression(opt, names) })
	maybe("algos", func() { experiments.AlgorithmsOnSummary(opt, "FA") })
	maybe("theorem1", func() { experiments.Theorem1(opt, 24, 3) })
	maybe("ablation", func() { experiments.Ablation(opt, "PR") })
	maybe("bytes", func() { experiments.Bytes(opt, names) })
}
