package core

import (
	"context"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/model"
)

// The paper's fixed settings: candidate sets are re-split by shingles
// at most maxLevels deep before random chunking (Sect. III-B2), and the
// three pruning substeps of Algorithm 3 repeat pruneRounds times
// ("these three substeps can be repeated a few times").
const (
	maxLevels   = 10
	pruneRounds = 3
)

// Config holds the SLUGGER parameters. The zero value is usable;
// defaults match the paper's experimental settings (Sect. IV-A).
type Config struct {
	// T is the number of candidate-generation + merging iterations
	// (default 20, as in the paper).
	T int
	// Hb bounds the height of hierarchy trees; 0 means unbounded (the
	// original SLUGGER). Used for the Table V experiment.
	Hb int
	// MaxGroup caps candidate set sizes (default 500, as in the paper).
	MaxGroup int
	// SkipPrune disables the pruning step entirely (Table IV state 0).
	SkipPrune bool
	// Seed drives all randomness; runs are deterministic given a seed.
	Seed int64
	// Workers sets the size of the worker pool that processes candidate
	// groups during merging (default 1 = serial). Only non-conflicting
	// groups run concurrently — an iteration with one candidate group
	// (≤ MaxGroup roots) is serial whatever the value — and any worker
	// count produces exactly the same summary as a serial run for a fixed
	// seed.
	Workers int

	// OnIteration, if non-nil, is invoked after each merging iteration
	// with the iteration number (1-based) and the current encoding cost.
	OnIteration func(t int, cost int64)
	// OnPruneSubstep, if non-nil, receives a snapshot after every
	// pruning substep (substep 0 is the pre-pruning state).
	OnPruneSubstep func(round, substep int, snap PruneSnapshot)
}

func (c Config) withDefaults() Config {
	if c.T <= 0 {
		c.T = 20
	}
	if c.MaxGroup <= 0 {
		c.MaxGroup = 500
	}
	return c
}

// Stats reports what a run did.
type Stats struct {
	Iterations      int
	Merges          int
	CostBeforePrune int64
	FinalCost       int64
}

// Threshold returns the merging threshold θ(t) of Eq. (9).
func Threshold(t, T int) float64 {
	if t >= T {
		return 0
	}
	return 1 / float64(1+t)
}

// Summarize runs SLUGGER (Algorithm 1) on g and returns the pruned
// hierarchical summary together with run statistics. The output model
// represents g exactly.
func Summarize(g *graph.Graph, cfg Config) (*model.Summary, Stats) {
	sum, stats, err := SummarizeCtx(context.Background(), g, cfg)
	if err != nil {
		// Background contexts never cancel, so this is unreachable.
		panic(err)
	}
	return sum, stats
}

// SummarizeCtx runs SLUGGER like Summarize but honors context
// cancellation: a cancelled ctx makes the run return promptly — between
// candidate groups of the merge phase and between pruning substeps —
// with a nil summary and ctx.Err(). No goroutines are leaked on
// cancellation; in-flight group workers drain before the call returns.
func SummarizeCtx(ctx context.Context, g *graph.Graph, cfg Config) (*model.Summary, Stats, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := newState(g, rng)
	if cfg.Workers > 1 {
		st.workers = cfg.Workers
	} else {
		st.workers = 1
	}
	stats := Stats{Iterations: cfg.T}

	for t := 1; t <= cfg.T; t++ {
		theta := Threshold(t, cfg.T)
		groups := st.generateCandidates(t, cfg.MaxGroup, cfg.Seed)
		merges, err := st.runIteration(ctx, groups, t, cfg.Seed, theta, cfg.Hb)
		stats.Merges += merges
		if err != nil {
			return nil, stats, err
		}
		if cfg.OnIteration != nil {
			cfg.OnIteration(t, st.totalCost())
		}
	}
	stats.CostBeforePrune = st.totalCost()

	pr := newPruner(st)
	if !cfg.SkipPrune {
		if err := pr.run(ctx, pruneRounds, cfg.OnPruneSubstep); err != nil {
			return nil, stats, err
		}
	}
	sum := pr.emit()
	stats.FinalCost = sum.Cost()
	return sum, stats, nil
}
