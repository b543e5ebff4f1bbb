package algos

import (
	"repro/internal/graph"
	"repro/internal/model"
)

// Raw adapts a raw graph to the NeighborSource interface.
func Raw(g *graph.Graph) NeighborSource {
	return FromFuncs(g.NumNodes(), g.Neighbors)
}

// Source adapts one overlay snapshot of a summary — a live one, or the
// empty overlay of a frozen compiled summary — reusing a single query
// context for the whole traversal, so every Neighbors call is
// allocation-free at steady state. It offers the snapshot's MulAdj and
// Degrees, so PageRank runs T products on it. Like any NeighborSource
// it is single-goroutine; concurrent traversals each take their own
// source via OnView. The snapshot is immutable, so a traversal sees one
// consistent graph even while updates land.
type Source struct {
	view *model.DeltaOverlay
	ctx  *model.OverlayCtx
}

func (s *Source) NumNodes() int { return s.view.NumNodes() }

// Neighbors returns the live neighbors of v; the result is valid until
// the next call.
func (s *Source) Neighbors(v int32) []int32 { return s.ctx.NeighborsOf(v) }

// MulAdj applies the live adjacency matrix; see
// model.DeltaOverlay.MulAdj.
func (s *Source) MulAdj(dst, x []float64) bool { return s.view.MulAdj(dst, x) }

// Degrees writes the live degree vector; see model.DeltaOverlay.Degrees.
func (s *Source) Degrees(dst []float64) bool { return s.view.Degrees(dst) }

// Release returns the source's query context. Call it when the
// traversal is done; the source must not be used afterwards.
// Long-lived callers that skip Release only forfeit context reuse, not
// correctness.
func (s *Source) Release() {
	if s.ctx != nil {
		s.view.ReleaseCtx(s.ctx)
		s.ctx = nil
	}
}

// OnView adapts an overlay snapshot (from model.Live.View or
// model.NewOverlay): every Neighbors call runs the base partial
// decompression (Algorithm 4) and merges the overlay's corrections.
func OnView(view *model.DeltaOverlay) *Source {
	//slugvet:ok poolpair (acquire wrapper: the Source owns the context for one traversal; callers pair OnView with Source.Release)
	return &Source{view: view, ctx: view.AcquireCtx()}
}

// OnCompiled adapts a compiled summary: the source of its empty overlay.
func OnCompiled(cs *model.CompiledSummary) *Source { return OnView(model.NewOverlay(cs)) }
