package algos

import (
	"repro/internal/graph"
	"repro/internal/model"
)

// Raw adapts a raw graph to the NeighborSource interface.
func Raw(g *graph.Graph) NeighborSource {
	return FromFuncs(g.NumNodes(), g.Neighbors)
}

// CompiledSource adapts a compiled summary, reusing one query context
// for the whole traversal so every Neighbors call is allocation-free at
// steady state. Like any NeighborSource, it is single-goroutine;
// concurrent traversals each take their own source via OnCompiled.
type CompiledSource struct {
	cs  *model.CompiledSummary
	ctx *model.QueryCtx
}

func (c *CompiledSource) NumNodes() int { return c.cs.NumNodes() }

// Neighbors returns the neighbors of v; the result is valid until the
// next call.
func (c *CompiledSource) Neighbors(v int32) []int32 { return c.ctx.NeighborsOf(v) }

// MulAdj applies the adjacency matrix on the hierarchy; see
// model.CompiledSummary.MulAdj.
func (c *CompiledSource) MulAdj(dst, x []float64) bool { return c.cs.MulAdj(dst, x) }

// Degrees writes the degree vector the summary computed once; see
// model.CompiledSummary.Degrees.
func (c *CompiledSource) Degrees(dst []float64) bool { return c.cs.Degrees(dst) }

// Release returns the source's query context to the summary's pool.
// Call it when the traversal is done; the source must not be used
// afterwards. Long-lived callers that skip Release only forfeit
// context reuse, not correctness.
func (c *CompiledSource) Release() {
	if c.ctx != nil {
		c.cs.ReleaseCtx(c.ctx)
		c.ctx = nil
	}
}

// OnCompiled adapts a compiled summary: every Neighbors call partially
// decompresses the model around the queried vertex (Algorithm 4)
// through a pooled query context held until Release.
func OnCompiled(cs *model.CompiledSummary) *CompiledSource {
	//slugvet:ok poolpair (acquire wrapper: the Source owns the context for one traversal; callers pair OnCompiled with Source.Release)
	return &CompiledSource{cs: cs, ctx: cs.AcquireCtx()}
}

// LiveSource adapts one overlay snapshot of a live summary, reusing a
// single overlay query context for the whole traversal. Like any
// NeighborSource it is single-goroutine; concurrent traversals each
// take their own source via OnView. The snapshot is immutable, so a
// traversal sees one consistent graph even while updates land.
type LiveSource struct {
	view *model.DeltaOverlay
	ctx  *model.OverlayCtx
}

func (s *LiveSource) NumNodes() int { return s.view.NumNodes() }

// Neighbors returns the live neighbors of v; the result is valid until
// the next call.
func (s *LiveSource) Neighbors(v int32) []int32 { return s.ctx.NeighborsOf(v) }

// MulAdj applies the live adjacency matrix; see
// model.DeltaOverlay.MulAdj.
func (s *LiveSource) MulAdj(dst, x []float64) bool { return s.view.MulAdj(dst, x) }

// Release returns the source's query context. Call it when the
// traversal is done; the source must not be used afterwards.
func (s *LiveSource) Release() {
	if s.ctx != nil {
		s.view.ReleaseCtx(s.ctx)
		s.ctx = nil
	}
}

// OnView adapts an overlay snapshot (from model.Live.View or a bare
// DeltaOverlay): every Neighbors call runs the base partial
// decompression and merges the overlay's corrections.
func OnView(view *model.DeltaOverlay) *LiveSource {
	//slugvet:ok poolpair (acquire wrapper: the Source owns the context for one traversal; callers pair OnView with Source.Release)
	return &LiveSource{view: view, ctx: view.AcquireCtx()}
}
