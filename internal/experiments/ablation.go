package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datasets"
)

// AblationRow reports one configuration of the design-choice ablation.
type AblationRow struct {
	Config       string
	RelativeSize float64
}

// Ablation quantifies SLUGGER's design choices on one dataset:
// the pruning pass (Sect. III-B4), the candidate-set size cap
// (Sect. III-B2, default 500; the supplementary material studies its
// effect), and the declining threshold schedule (approximated by T=1,
// which keeps only the first, strictest round).
func Ablation(opt Options, dataset string) []AblationRow {
	opt = opt.withDefaults()
	spec, err := datasets.ByName(dataset)
	if err != nil {
		spec, _ = datasets.ByName("PR")
	}
	g := spec.Generate(opt.Scale, opt.Seed)

	run := func(name string, cfg core.Config) AblationRow {
		cfg.Seed = opt.Seed
		cfg.Workers = opt.Workers
		if cfg.T == 0 {
			cfg.T = opt.T
		}
		s, _ := core.Summarize(g, cfg)
		return AblationRow{Config: name, RelativeSize: s.RelativeSize(g.NumEdges())}
	}

	rows := []AblationRow{
		run("full (paper defaults)", core.Config{}),
		run("no pruning", core.Config{SkipPrune: true}),
		run("single iteration (T=1)", core.Config{T: 1}),
		run("tiny candidate sets (MaxGroup=16)", core.Config{MaxGroup: 16}),
		run("flat hierarchy (Hb=1)", core.Config{Hb: 1}),
	}

	fmt.Fprintf(opt.Out, "=== Ablation on %s (scale=%.2f, |E|=%d) ===\n",
		spec.Name, opt.Scale, g.NumEdges())
	for _, r := range rows {
		fmt.Fprintf(opt.Out, "%-36s %8.3f\n", r.Config, r.RelativeSize)
	}
	return rows
}
