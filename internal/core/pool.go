package core

// This file implements the per-worker scratch contexts and free-lists
// that make the merge inner loop allocation-free in steady state. Every
// goroutine that evaluates or commits merges owns a gctx; transient
// objects (bipartite-panel problems, merge decisions, signed-edge
// buffers) are recycled through the context instead of being
// heap-allocated per evaluation. Contexts themselves are pooled on the
// state via sync.Pool, so the cost of a fully-warmed context is paid
// workers times per run, not once per evaluation.

// gctx is the per-goroutine execution context for group processing:
// epoch-stamped vertex marks (each worker needs its own, since merge
// commits materialize correction lists concurrently) and free-lists for
// every transient object of the merge inner loop.
type gctx struct {
	st *state

	// Vertex marks, the only ones there are: the serial pruning phase
	// borrows a context for them too.
	mark  []int32
	epoch int32

	// Case-2 scratch problem reused across cross evaluations.
	scratch bipProblem

	// Free-lists.
	probFree []*bipProblem
	decFree  []*mergeDecision

	// Reusable buffers.
	edgeBuf []sedge // scratch for materializing signed-edge lists
	qBuf    []int32 // processGroup's candidate queue
}

// nextEpoch advances this context's vertex-mark epoch.
func (ctx *gctx) nextEpoch() int32 {
	ctx.epoch++
	return ctx.epoch
}

// markVerts stamps the vertices of supernode sn with the given epoch.
func (ctx *gctx) markVerts(sn int32, epoch int32) {
	verts := ctx.st.verts[sn]
	for _, v := range verts {
		ctx.mark[v] = epoch
	}
}

func (ctx *gctx) getProb() *bipProblem {
	if n := len(ctx.probFree); n > 0 {
		p := ctx.probFree[n-1]
		ctx.probFree = ctx.probFree[:n-1]
		return p
	}
	return new(bipProblem)
}

func (ctx *gctx) putProb(p *bipProblem) {
	if p != nil {
		ctx.probFree = append(ctx.probFree, p)
	}
}

func (ctx *gctx) getDec() *mergeDecision {
	if n := len(ctx.decFree); n > 0 {
		d := ctx.decFree[n-1]
		ctx.decFree = ctx.decFree[:n-1]
		d.crosses = d.crosses[:0]
		return d
	}
	return new(mergeDecision)
}

// putDec recycles a decision, returning its panel problems to the
// free-list. Safe to call on nil.
func (ctx *gctx) putDec(d *mergeDecision) {
	if d == nil {
		return
	}
	ctx.putProb(d.within.prob)
	d.within.prob = nil
	for i := range d.crosses {
		ctx.putProb(d.crosses[i].prob)
		d.crosses[i].prob = nil
	}
	d.crosses = d.crosses[:0]
	ctx.decFree = append(ctx.decFree, d)
}

// getCtx borrows a warm context from the state's pool.
func (st *state) getCtx() *gctx {
	if v := st.ctxPool.Get(); v != nil {
		return v.(*gctx)
	}
	return &gctx{st: st, mark: make([]int32, st.n)}
}

func (st *state) putCtx(ctx *gctx) {
	st.ctxPool.Put(ctx)
}
