package model

// This file implements the read-optimized serving layer over a Summary:
// a CompiledSummary freezes the model into flat CSR-packed arrays
// (ancestor chains, incidence lists, subnode lists, edge endpoints) and
// answers NeighborsOf and HasEdge (and through them NeighborsBatch and
// Decode) in pooled QueryCtx scratch contexts. It is the query-path
// counterpart of the construction-side gctx pool in internal/core: a
// warmed context performs zero allocations per query, and any number of
// goroutines may query one CompiledSummary concurrently, each through
// its own context.

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/graph"
)

// CompiledSummary is an immutable, read-optimized compilation of a
// Summary, and the model's one implementation of Algorithm 4: serving,
// Decode and Validate all query it. All per-query state lives in
// QueryCtx, so one CompiledSummary is safe for any number of concurrent
// readers. Ancestor chains are precomputed per leaf, and membership
// tests use epoch-stamped dense scratch in the context.
type CompiledSummary struct {
	n     int // leaf vertices 0..n-1
	total int // supernodes

	// Per-leaf ancestor chains, leaf first, packed into one array:
	// chains[chainOff[v]:chainOff[v+1]] = v, parent(v), ..., root.
	chainOff []int32
	chains   []int32

	// CSR incidence: edge indices touching supernode x are
	// incAdj[incOff[x]:incOff[x+1]].
	incOff []int32
	incAdj []int32

	// Superedges unpacked into parallel arrays (struct-of-arrays keeps
	// the sign byte off the hot endpoint loads).
	edgeA, edgeB []int32
	edgeSign     []int8

	// CSR subnode lists: verts[vertsOff[x]:vertsOff[x+1]] are the
	// leaves under supernode x, sorted ascending.
	vertsOff []int64
	verts    []int32

	ctxPool sync.Pool

	// adjPlan returns MulAdj's plan, building it on the first call
	// (muladj.go); set by the constructors.
	adjPlan func() *adjPlan
}

// Compile freezes the summary into its read-optimized serving form.
// The result shares no mutable state with s and is safe for concurrent
// readers.
func (s *Summary) Compile() *CompiledSummary {
	total := len(s.Parent)
	cs := &CompiledSummary{n: s.N, total: total}
	cs.adjPlan = sync.OnceValue(cs.buildAdjPlan)

	// Ancestor chains.
	cs.chainOff = make([]int32, s.N+1)
	for v := 0; v < s.N; v++ {
		length := int32(1)
		for x := int32(v); s.Parent[x] >= 0; x = s.Parent[x] {
			length++
		}
		cs.chainOff[v+1] = cs.chainOff[v] + length
	}
	cs.chains = make([]int32, cs.chainOff[s.N])
	for v := 0; v < s.N; v++ {
		i := cs.chainOff[v]
		x := int32(v)
		for {
			cs.chains[i] = x
			i++
			if s.Parent[x] < 0 {
				break
			}
			x = s.Parent[x]
		}
	}

	// Incidence CSR: edge indices ascending per supernode, a self-loop
	// listed once.
	cs.incOff = make([]int32, total+1)
	for _, e := range s.Edges {
		cs.incOff[e.A+1]++
		if e.B != e.A {
			cs.incOff[e.B+1]++
		}
	}
	for x := 0; x < total; x++ {
		cs.incOff[x+1] += cs.incOff[x]
	}
	cs.incAdj = make([]int32, cs.incOff[total])
	next := slices.Clone(cs.incOff[:total])
	for i, e := range s.Edges {
		cs.incAdj[next[e.A]] = int32(i)
		next[e.A]++
		if e.B != e.A {
			cs.incAdj[next[e.B]] = int32(i)
			next[e.B]++
		}
	}

	// Edges as parallel arrays.
	cs.edgeA = make([]int32, len(s.Edges))
	cs.edgeB = make([]int32, len(s.Edges))
	cs.edgeSign = make([]int8, len(s.Edges))
	for i, e := range s.Edges {
		cs.edgeA[i] = e.A
		cs.edgeB[i] = e.B
		cs.edgeSign[i] = e.Sign
	}

	// Subnode CSR: x's list holds the leaves whose chain passes through
	// x, so walking the leaves in ascending order fills each list sorted.
	cs.vertsOff = make([]int64, total+1)
	for _, x := range cs.chains {
		cs.vertsOff[x+1]++
	}
	for x := 0; x < total; x++ {
		cs.vertsOff[x+1] += cs.vertsOff[x]
	}
	cs.verts = make([]int32, len(cs.chains))
	pos := slices.Clone(cs.vertsOff[:total])
	for v := int32(0); v < int32(s.N); v++ {
		for _, x := range cs.chainOf(v) {
			cs.verts[pos[x]] = v
			pos[x]++
		}
	}
	return cs
}

// NumNodes returns the number of leaf vertices.
func (cs *CompiledSummary) NumNodes() int { return cs.n }

// NumSupernodes returns |S|.
func (cs *CompiledSummary) NumSupernodes() int { return cs.total }

// NumSuperedges returns |P+| + |P-|.
func (cs *CompiledSummary) NumSuperedges() int { return len(cs.edgeA) }

// Cost returns the encoding cost of the compiled hierarchy,
// |P+| + |P-| + |H|: the cost of the summary it was compiled from.
func (cs *CompiledSummary) Cost() int64 { return int64(cs.NumSuperedges() + cs.NumHEdges()) }

// NumHEdges returns |H|, the supernodes that have a parent, in one pass
// over the ancestor chains: a chain's walk stops at the first supernode
// an earlier chain reached, whose ancestors that chain counted.
func (cs *CompiledSummary) NumHEdges() int {
	seen := make([]bool, cs.total)
	h := 0
	for v := range int32(cs.n) {
		chain := cs.chainOf(v)
		for _, x := range chain[:len(chain)-1] {
			if seen[x] {
				break
			}
			seen[x] = true
			h++
		}
	}
	return h
}

// vertsOf returns the leaves under supernode x.
func (cs *CompiledSummary) vertsOf(x int32) []int32 {
	return cs.verts[cs.vertsOff[x]:cs.vertsOff[x+1]]
}

// chainOf returns leaf v's ancestor chain, leaf first.
func (cs *CompiledSummary) chainOf(v int32) []int32 {
	return cs.chains[cs.chainOff[v]:cs.chainOff[v+1]]
}

// QueryCtx holds the per-goroutine scratch for queries against one
// CompiledSummary: dense, epoch-stamped arrays over the leaves and the
// supernodes. A context is not safe for concurrent use; acquire one per
// goroutine (or per traversal) and release it when done.
type QueryCtx struct {
	cs *CompiledSummary

	// Algorithm 4's per-leaf counts: cnt[u] is current only while
	// cntStamp[u] == cntEpoch, and touched lists those leaves in the
	// order they were first reached.
	cnt      []int32
	cntStamp []int32
	cntEpoch int32
	touched  []int32

	// Ancestor-chain membership: x is on the chain of the queried leaf
	// (HasEdge's v) while anc[x] == ancEpoch.
	anc      []int32
	ancEpoch int32

	// NeighborsOf's ordered emission: a bitmap over the leaves and the
	// indices of its nonzero words. Both are empty between calls.
	set   []uint64
	words []int32

	out []int32 // NeighborsOf result buffer
}

// AcquireCtx borrows a query context from the pool (allocating only on
// first use per P). Release it with ReleaseCtx.
func (cs *CompiledSummary) AcquireCtx() *QueryCtx {
	if v := cs.ctxPool.Get(); v != nil {
		return v.(*QueryCtx)
	}
	return &QueryCtx{
		cs:       cs,
		cnt:      make([]int32, cs.n),
		cntStamp: make([]int32, cs.n),
		anc:      make([]int32, cs.total),
		set:      make([]uint64, (cs.n+63)/64),
	}
}

// ReleaseCtx returns a context to the pool.
func (cs *CompiledSummary) ReleaseCtx(ctx *QueryCtx) { cs.ctxPool.Put(ctx) }

// nextAncEpoch opens a fresh ancestor-stamp epoch, clearing the stamp
// array on the (once per ~2^31 queries) wraparound.
func (ctx *QueryCtx) nextAncEpoch() int32 {
	if ctx.ancEpoch == math.MaxInt32 {
		clear(ctx.anc)
		ctx.ancEpoch = 0
	}
	ctx.ancEpoch++
	return ctx.ancEpoch
}

func (ctx *QueryCtx) nextCntEpoch() int32 {
	if ctx.cntEpoch == math.MaxInt32 {
		clear(ctx.cntStamp)
		ctx.cntEpoch = 0
	}
	ctx.cntEpoch++
	return ctx.cntEpoch
}

// other returns the endpoint of superedge ei that is not x (x itself
// for a self-loop). It reads both stored endpoints rather than
// deriving one from the other, so it cannot leave the supernode range;
// that x is an endpoint at all is FromMapped's incidence check.
func (cs *CompiledSummary) other(ei, x int32) int32 {
	if a := cs.edgeA[ei]; a != x {
		return a
	}
	return cs.edgeB[ei]
}

// count adds sign to leaf u's count in the current epoch.
func (ctx *QueryCtx) count(u, sign, ep int32) {
	if ctx.cntStamp[u] != ep {
		ctx.cntStamp[u] = ep
		ctx.cnt[u] = 0
		ctx.touched = append(ctx.touched, u)
	}
	ctx.cnt[u] += sign
}

// countOf returns leaf u's count from the last accumulate, 0 if it was
// not reached.
func (ctx *QueryCtx) countOf(u int32) int32 {
	if ctx.cntStamp[u] != ctx.cntEpoch {
		return 0
	}
	return ctx.cnt[u]
}

// accumulate runs the counting core of Algorithm 4 for leaf v into the
// dense scratch: after it returns, ctx.touched lists every leaf u with a
// stamped count, and ctx.cnt[u] is |p-edges| - |n-edges| covering {v,u}.
//
// A superedge is reached once from each endpoint on v's ancestor chain.
// One whose other endpoint is off the chain is reached once and covers
// the leaves under that endpoint. One with both endpoints on the chain
// (nested, or a self-loop on an ancestor) is counted at the endpoint
// nearer the leaf, and covers the leaves under the larger endpoint.
func (ctx *QueryCtx) accumulate(v int32) {
	cs := ctx.cs
	n := int32(cs.n)
	chain := cs.chainOf(v)
	ancEp := ctx.nextAncEpoch()
	for _, x := range chain {
		ctx.anc[x] = ancEp
	}
	cntEp := ctx.nextCntEpoch()
	ctx.touched = ctx.touched[:0]
	for i, x := range chain {
		for _, ei := range cs.incAdj[cs.incOff[x]:cs.incOff[x+1]] {
			y := cs.other(ei, x)
			sign := int32(cs.edgeSign[ei])
			var span []int32
			switch {
			case ctx.anc[y] != ancEp && y < n:
				// A leaf off the chain: vertsOf(y) is [y], counted
				// without loading it (the common case off a sparse
				// or random graph's summary).
				ctx.count(y, sign, cntEp)
				continue
			case ctx.anc[y] != ancEp:
				span = cs.vertsOf(y)
			case slices.Contains(chain[:i], y):
				continue // counted at y
			default:
				// Nested endpoints, or a self-loop: {v,u} is covered
				// iff u is under the larger endpoint.
				a, b := cs.edgeA[ei], cs.edgeB[ei]
				if cs.vertsOff[a+1]-cs.vertsOff[a] >= cs.vertsOff[b+1]-cs.vertsOff[b] {
					span = cs.vertsOf(a)
				} else {
					span = cs.vertsOf(b)
				}
			}
			for _, u := range span {
				ctx.count(u, sign, cntEp)
			}
		}
	}
}

// NeighborsOf returns the sorted neighbors of leaf v in the represented
// graph (Algorithm 4). The result aliases the context's buffer and is
// valid until the next call on this context; copy it to retain it.
// Allocation-free at steady state.
//
// The neighbors are set in a bitmap whose nonzero words are recorded as
// they are first touched; sorting those word indices and reading their
// bits out in order yields the sorted list.
func (ctx *QueryCtx) NeighborsOf(v int32) []int32 {
	ctx.accumulate(v)
	set, words := ctx.set, ctx.words[:0]
	for _, u := range ctx.touched {
		if u != v && ctx.cnt[u] > 0 {
			w := u >> 6
			if set[w] == 0 {
				words = append(words, w)
			}
			set[w] |= 1 << (u & 63)
		}
	}
	slices.Sort(words)
	out := ctx.out[:0]
	for _, w := range words {
		for m := set[w]; m != 0; m &= m - 1 {
			out = append(out, w<<6|int32(bits.TrailingZeros64(m)))
		}
		set[w] = 0
	}
	ctx.words, ctx.out = words, out
	return out
}

// HasEdge reports whether the represented graph contains {u,v}: the
// point query sums the signs of superedges covering the pair. Every
// such edge has an endpoint on u's ancestor chain, so only that chain's
// incidences are scanned, and an edge at x covers {u,v} iff its other
// endpoint y is an ancestor of v. An edge with both endpoints on the
// chain is counted once, at the endpoint x nearer u: y is then x itself
// or an ancestor of x, so it is an ancestor of v whenever x is.
// Allocation-free at steady state.
func (ctx *QueryCtx) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	cs := ctx.cs
	chainU := cs.chainOf(u)
	ancEp := ctx.nextAncEpoch()
	for _, x := range cs.chainOf(v) {
		ctx.anc[x] = ancEp
	}
	var net int32
	for i, x := range chainU {
		for _, ei := range cs.incAdj[cs.incOff[x]:cs.incOff[x+1]] {
			if y := cs.other(ei, x); ctx.anc[y] == ancEp && !slices.Contains(chainU[:i], y) {
				net += int32(cs.edgeSign[ei])
			}
		}
	}
	return net > 0
}

// NeighborsOf is the context-free convenience form: it borrows a pooled
// context and returns a freshly allocated copy of the neighbor list,
// safe to retain. Safe for concurrent callers.
func (cs *CompiledSummary) NeighborsOf(v int32) []int32 {
	ctx := cs.AcquireCtx()
	out := slices.Clone(ctx.NeighborsOf(v))
	cs.ReleaseCtx(ctx)
	return out
}

// HasEdge is the context-free convenience form of QueryCtx.HasEdge.
// Safe for concurrent callers and allocation-free at steady state.
func (cs *CompiledSummary) HasEdge(u, v int32) bool {
	ctx := cs.AcquireCtx()
	ok := ctx.HasEdge(u, v)
	cs.ReleaseCtx(ctx)
	return ok
}

// NeighborsBatch decompresses the neighborhoods of vs in order through
// one pooled context, invoking visit with each vertex and its sorted
// neighbors. The nbrs slice is only valid for the duration of the
// callback. Beyond amortizing context reuse, the batch form is the
// hook for request coalescing in serving front-ends.
func (cs *CompiledSummary) NeighborsBatch(vs []int32, visit func(v int32, nbrs []int32)) {
	ctx := cs.AcquireCtx()
	defer cs.ReleaseCtx(ctx)
	for _, v := range vs {
		visit(v, ctx.NeighborsOf(v))
	}
}

// Decode reconstructs the full represented graph by running partial
// decompression from every vertex through one reused context.
func (cs *CompiledSummary) Decode() *graph.Graph {
	b := graph.NewBuilder(cs.n)
	ctx := cs.AcquireCtx()
	defer cs.ReleaseCtx(ctx)
	for v := int32(0); v < int32(cs.n); v++ {
		ctx.accumulate(v)
		for _, u := range ctx.touched {
			if u > v && ctx.cnt[u] > 0 {
				b.AddEdge(v, u)
			}
		}
	}
	return b.Build()
}
