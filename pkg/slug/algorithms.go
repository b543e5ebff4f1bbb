package slug

import (
	"context"

	"repro/internal/baselines/mosso"
	"repro/internal/baselines/randomized"
	"repro/internal/baselines/sags"
	"repro/internal/baselines/sweg"
	"repro/internal/core"
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
	return finish(cfg, "slugger", sum, err, total, total)
}

// finish wraps a run's summary as the algorithm's *Hierarchical
// artifact (a baseline's is the height-1 hierarchy flat.Encode builds)
// and emits the StageDone event on success.
func finish(cfg buildConfig, algo string, s *model.Summary, err error, step, total int) (Artifact, error) {
	if err != nil {
		return nil, err
	}
	cfg.emit(Event{Algorithm: algo, Stage: StageDone, Step: step, Total: total, Cost: s.Cost()})
	return NewHierarchical(algo, s), nil
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
	return finish(cfg, "sweg", s, err, total, total)
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
	return finish(cfg, "mosso", s, err, totalEdges, totalEdges)
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
	return finish(cfg, "randomized", s, err, 1, 1)
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
	return finish(cfg, "sags", s, err, bands, bands)
}
