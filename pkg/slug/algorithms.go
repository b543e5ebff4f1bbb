package slug

import (
	"context"

	"repro/internal/baselines/mosso"
	"repro/internal/baselines/randomized"
	"repro/internal/baselines/sags"
	"repro/internal/baselines/sweg"
	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/model"
)

// The five algorithms of the paper's evaluation register themselves at
// init, so slug.Get("<name>") works out of the box for: slugger, sweg,
// mosso, randomized, sags.
func init() {
	Register(sluggerSummarizer{})
	Register(swegSummarizer{})
	Register(mossoSummarizer{})
	Register(randomizedSummarizer{})
	Register(sagsSummarizer{})
}

// defaultIterations mirrors the paper's T = 20 default shared by the
// iterative algorithms, used to fill Event.Total when the caller keeps
// the default.
const defaultIterations = 20

// sluggerSummarizer adapts SLUGGER (internal/core) to the unified API.
type sluggerSummarizer struct{}

// Name returns "slugger".
func (sluggerSummarizer) Name() string { return "slugger" }

// Summarize runs SLUGGER and returns a hierarchical artifact. All
// options apply: iterations, height bound, seed, workers, progress.
func (sluggerSummarizer) Summarize(ctx context.Context, g *graph.Graph, opts ...Option) (Artifact, error) {
	cfg := resolve(opts)
	coreCfg := core.Config{
		T:       cfg.iterations,
		Hb:      cfg.heightBound,
		Seed:    cfg.seed,
		Workers: cfg.workers,
	}
	total := cfg.iterations
	if total <= 0 {
		total = defaultIterations
	}
	if cfg.progress != nil {
		coreCfg.OnIteration = func(t int, cost int64) {
			cfg.emit(Event{Algorithm: "slugger", Stage: StageIteration, Step: t, Total: total, Cost: cost})
		}
	}
	sum, _, err := core.SummarizeCtx(ctx, g, coreCfg)
	if err != nil {
		return nil, err
	}
	cfg.emit(Event{Algorithm: "slugger", Stage: StageDone, Step: total, Total: total, Cost: sum.Cost()})
	return NewHierarchical("slugger", sum), nil
}

// finishFlat converts a baseline run's flat output into the equivalent
// height-1 hierarchy (same graph, same Eq. (11) cost), so every
// algorithm returns a *Hierarchical, and emits the StageDone event on
// success.
func finishFlat(cfg buildConfig, algo string, s *flat.Summary, err error, step, total int) (Artifact, error) {
	if err != nil {
		return nil, err
	}
	art := NewHierarchical(algo, flatToModel(s))
	cfg.emit(Event{Algorithm: algo, Stage: StageDone, Step: step, Total: total, Cost: art.Cost()})
	return art, nil
}

// flatToModel converts a flat summary into the equivalent hierarchical
// model: every non-singleton supernode becomes a height-1 tree,
// superedges become p-edges between the corresponding supernodes, and
// corrections become signed edges between leaves. Net per-pair counts
// are preserved, so the model represents the same graph, and the
// hierarchical cost |P+| + |P-| + |H| equals the flat cost (Eq. (11)).
func flatToModel(f *flat.Summary) *model.Summary {
	n := f.N
	parent := make([]int32, n, n+len(f.Groups))
	for i := range parent {
		parent[i] = -1
	}
	// super[gi] is the model supernode standing for group gi: a fresh
	// internal node for groups of two or more, the lone member for
	// singletons. An empty group gets none; flat.Encode only places
	// superedges between groups that have edges, so P never names one.
	super := make([]int32, len(f.Groups))
	next := int32(n)
	for gi, members := range f.Groups {
		switch {
		case len(members) >= 2:
			super[gi] = next
			parent = append(parent, -1)
			for _, v := range members {
				parent[v] = next
			}
			next++
		case len(members) == 1:
			super[gi] = members[0]
		}
	}
	edges := make([]model.Edge, 0, len(f.P)+len(f.CPlus)+len(f.CMinus))
	add := func(a, b int32, sign int8) {
		if a > b {
			a, b = b, a
		}
		edges = append(edges, model.Edge{A: a, B: b, Sign: sign})
	}
	for _, pe := range f.P {
		add(super[pe[0]], super[pe[1]], 1)
	}
	for _, e := range f.CPlus {
		add(e[0], e[1], 1)
	}
	for _, e := range f.CMinus {
		add(e[0], e[1], -1)
	}
	return model.New(n, parent, edges)
}

// swegSummarizer adapts SWeG (lossless mode) to the unified API.
type swegSummarizer struct{}

// Name returns "sweg".
func (swegSummarizer) Name() string { return "sweg" }

// Summarize runs SWeG and returns its summary as a height-1 hierarchy.
// Iterations, seed and progress apply; height bound and workers are
// ignored.
func (swegSummarizer) Summarize(ctx context.Context, g *graph.Graph, opts ...Option) (Artifact, error) {
	cfg := resolve(opts)
	swegCfg := sweg.Config{T: cfg.iterations}
	total := cfg.iterations
	if total <= 0 {
		total = defaultIterations
	}
	if cfg.progress != nil {
		swegCfg.OnIteration = func(t int) {
			cfg.emit(Event{Algorithm: "sweg", Stage: StageIteration, Step: t, Total: total, Cost: CostUnknown})
		}
	}
	s, err := sweg.SummarizeCtx(ctx, g, cfg.seed, swegCfg)
	return finishFlat(cfg, "sweg", s, err, total, total)
}

// mossoSummarizer adapts MoSSo (batch setting) to the unified API.
type mossoSummarizer struct{}

// Name returns "mosso".
func (mossoSummarizer) Name() string { return "mosso" }

// Summarize streams the graph's edges through MoSSo and returns its
// summary as a height-1 hierarchy. Seed and progress apply (progress
// steps count streamed edges); the remaining options are ignored.
func (mossoSummarizer) Summarize(ctx context.Context, g *graph.Graph, opts ...Option) (Artifact, error) {
	cfg := resolve(opts)
	mossoCfg := mosso.Config{}
	if cfg.progress != nil {
		mossoCfg.OnProgress = func(processed, totalEdges int) {
			cfg.emit(Event{Algorithm: "mosso", Stage: StageIteration, Step: processed, Total: totalEdges, Cost: CostUnknown})
		}
	}
	s, err := mosso.SummarizeCtx(ctx, g, cfg.seed, mossoCfg)
	totalEdges := int(g.NumEdges())
	return finishFlat(cfg, "mosso", s, err, totalEdges, totalEdges)
}

// randomizedSummarizer adapts the Randomized greedy search to the
// unified API.
type randomizedSummarizer struct{}

// Name returns "randomized".
func (randomizedSummarizer) Name() string { return "randomized" }

// Summarize runs the randomized greedy search and returns its summary
// as a height-1 hierarchy. Seed and progress apply (the search has no
// fixed iteration count, so only StageDone is emitted); the remaining
// options are ignored.
func (randomizedSummarizer) Summarize(ctx context.Context, g *graph.Graph, opts ...Option) (Artifact, error) {
	cfg := resolve(opts)
	s, err := randomized.SummarizeCtx(ctx, g, cfg.seed)
	return finishFlat(cfg, "randomized", s, err, 1, 1)
}

// sagsSummarizer adapts SAGS to the unified API.
type sagsSummarizer struct{}

// Name returns "sags".
func (sagsSummarizer) Name() string { return "sags" }

// Summarize runs SAGS and returns its summary as a height-1 hierarchy.
// Seed and progress apply (progress steps count LSH bands); the
// remaining options are ignored.
func (sagsSummarizer) Summarize(ctx context.Context, g *graph.Graph, opts ...Option) (Artifact, error) {
	cfg := resolve(opts)
	sagsCfg := sags.Config{}
	// The band count is owned by sags.Config's defaults; learn it from
	// the OnBand callbacks rather than duplicating the constant here.
	// It only feeds the StageDone event, which is dropped without a
	// progress callback anyway.
	bands := 0
	if cfg.progress != nil {
		sagsCfg.OnBand = func(band, totalBands int) {
			bands = totalBands
			cfg.emit(Event{Algorithm: "sags", Stage: StageIteration, Step: band, Total: totalBands, Cost: CostUnknown})
		}
	}
	s, err := sags.SummarizeCtx(ctx, g, cfg.seed, sagsCfg)
	return finishFlat(cfg, "sags", s, err, bands, bands)
}
