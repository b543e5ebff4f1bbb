package core

// This file implements the per-worker scratch contexts and free-lists
// that keep the merge inner loop allocation-free in steady state. Every
// goroutine that runs candidate groups (scheduler.go) holds a gctx for
// the iteration and runs whole groups on it. Scoring a partner needs
// only the within plan's panel problem from it; planning the winner
// additionally draws a decision and one problem per rewritten neighbour
// panel, which live until the commit — all recycled through the context
// instead of being heap-allocated per call. Contexts themselves are
// pooled on the state via sync.Pool, so the cost of a fully-warmed
// context is paid workers times per run.

import "math/rand/v2"

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

	// Free-lists.
	probFree []*bipProblem
	decFree  []*mergeDecision

	// Reusable buffers.
	edgeBuf []sedge // scratch for materializing signed-edge lists
	qBuf    []int32 // processGroup's candidate queue

	// The current group's generator: rng draws from pcg, which groupRNG
	// reseeds in place.
	pcg rand.PCG
	rng *rand.Rand

	// The popped root's view of its neighbours, stamped once per pop.
	pop popInfo
}

// popInfo is what every partner evaluation of one pop shares about the
// popped root A: the position of each neighbour's record in A's list, by
// neighbour id, and the neighbours whose record is loose. The slots are
// epoch-stamped, so a pop costs O(deg A) and nothing is reset. It is
// written by stampPop only and read by scoreMerge on the same context;
// A's list does not change while the pop's partners are scored.
type popInfo struct {
	a     int32
	epoch int32
	list  []nbr
	slots []popSlot // indexed by root id
	loose []int32
}

// popSlot locates the popped root's record towards one root: list[idx],
// valid when epoch is the pop's.
type popSlot struct {
	idx, epoch int32
}

// stampPop indexes root a's neighbour records in the context's popInfo.
func (ctx *gctx) stampPop(a int32) {
	pop := &ctx.pop
	if len(pop.slots) < len(ctx.st.nbrs) {
		// Every id a build allocates (at most 2n - 1: the merged ids plus
		// one reserved block of fewer than n) fits the capacity newState
		// gives the id space, so the slots are made once per context.
		pop.slots = make([]popSlot, cap(ctx.st.nbrs))
	}
	pop.a = a
	pop.epoch++
	pop.list = ctx.st.nbrs[a]
	pop.loose = pop.loose[:0]
	for i, nb := range pop.list {
		pop.slots[nb.c] = popSlot{int32(i), pop.epoch}
		if nb.loose {
			pop.loose = append(pop.loose, nb.c)
		}
	}
}

// record returns the popped root's record towards root c, nil when they
// are not adjacent.
func (pop *popInfo) record(c int32) *nbr {
	if s := pop.slots[c]; s.epoch == pop.epoch {
		return &pop.list[s.idx]
	}
	return nil
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
	ctx := &gctx{st: st, mark: make([]int32, st.n)}
	ctx.rng = rand.New(&ctx.pcg)
	return ctx
}

func (st *state) putCtx(ctx *gctx) {
	st.ctxPool.Put(ctx)
}
