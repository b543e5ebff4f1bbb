package model

// This file implements the read-optimized serving layer over a Summary:
// a CompiledSummary freezes the model into flat CSR-packed arrays
// (ancestor chains, incidence lists, subnode lists, edge endpoints) and
// answers NeighborsOf/HasEdge/NeighborCounts through pooled QueryCtx
// scratch contexts. It is the query-path counterpart of the
// construction-side gctx pool in internal/core: a warmed context
// performs zero allocations per query, and any number of goroutines may
// query one CompiledSummary concurrently, each through its own context.

import (
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
)

// CompiledSummary is an immutable, read-optimized compilation of a
// Summary for serving workloads. All per-query state lives in QueryCtx,
// so one CompiledSummary is safe for any number of concurrent readers.
//
// Compared to querying the Summary directly, the compiled form replaces
// per-call map allocation and parent-pointer chasing with flat arrays:
// ancestor chains are precomputed per leaf, and membership/dedup tests
// use epoch-stamped dense scratch in the context.
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

	// Incidence CSR.
	cs.incOff = make([]int32, total+1)
	for x := 0; x < total; x++ {
		cs.incOff[x+1] = cs.incOff[x] + int32(len(s.incident[x]))
	}
	cs.incAdj = make([]int32, cs.incOff[total])
	for x := 0; x < total; x++ {
		copy(cs.incAdj[cs.incOff[x]:cs.incOff[x+1]], s.incident[x])
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

	// Subnode CSR.
	cs.vertsOff = make([]int64, total+1)
	for x := 0; x < total; x++ {
		cs.vertsOff[x+1] = cs.vertsOff[x] + int64(len(s.verts[x]))
	}
	cs.verts = make([]int32, cs.vertsOff[total])
	for x := 0; x < total; x++ {
		copy(cs.verts[cs.vertsOff[x]:cs.vertsOff[x+1]], s.verts[x])
	}
	return cs
}

// NumNodes returns the number of leaf vertices.
func (cs *CompiledSummary) NumNodes() int { return cs.n }

// NumSupernodes returns |S|.
func (cs *CompiledSummary) NumSupernodes() int { return cs.total }

// NumSuperedges returns |P+| + |P-|.
func (cs *CompiledSummary) NumSuperedges() int { return len(cs.edgeA) }

// vertsOf returns the leaves under supernode x.
func (cs *CompiledSummary) vertsOf(x int32) []int32 {
	return cs.verts[cs.vertsOff[x]:cs.vertsOff[x+1]]
}

// chainOf returns leaf v's ancestor chain, leaf first.
func (cs *CompiledSummary) chainOf(v int32) []int32 {
	return cs.chains[cs.chainOff[v]:cs.chainOff[v+1]]
}

// QueryCtx holds the per-goroutine scratch for queries against one
// CompiledSummary: epoch-stamped dense arrays replacing the maps the
// uncompiled path allocates per call. A context is not safe for
// concurrent use; acquire one per goroutine (or per traversal) and
// release it when done.
type QueryCtx struct {
	cs *CompiledSummary

	// Dense per-leaf neighbor counts (Algorithm 4 accumulation).
	cnt      []int32
	cntStamp []int32
	cntEpoch int32
	touched  []int32 // leaves stamped in the current epoch

	// Per-supernode ancestor membership for the query endpoints.
	ancU     []int32
	ancV     []int32
	ancEpoch int32

	// Per-superedge dedup stamps.
	edgeStamp []int32
	edgeEpoch int32

	out []int32 // NeighborsOf result buffer
}

// AcquireCtx borrows a query context from the pool (allocating only on
// first use per P). Release it with ReleaseCtx.
func (cs *CompiledSummary) AcquireCtx() *QueryCtx {
	if v := cs.ctxPool.Get(); v != nil {
		return v.(*QueryCtx)
	}
	return &QueryCtx{
		cs:        cs,
		cnt:       make([]int32, cs.n),
		cntStamp:  make([]int32, cs.n),
		ancU:      make([]int32, cs.total),
		ancV:      make([]int32, cs.total),
		edgeStamp: make([]int32, len(cs.edgeA)),
	}
}

// ReleaseCtx returns a context to the pool.
func (cs *CompiledSummary) ReleaseCtx(ctx *QueryCtx) { cs.ctxPool.Put(ctx) }

// nextAncEpoch opens a fresh ancestor-stamp epoch, clearing the stamp
// arrays on the (once per ~2^31 queries) wraparound.
func (ctx *QueryCtx) nextAncEpoch() int32 {
	if ctx.ancEpoch == math.MaxInt32 {
		clear(ctx.ancU)
		clear(ctx.ancV)
		ctx.ancEpoch = 0
	}
	ctx.ancEpoch++
	return ctx.ancEpoch
}

func (ctx *QueryCtx) nextEdgeEpoch() int32 {
	if ctx.edgeEpoch == math.MaxInt32 {
		clear(ctx.edgeStamp)
		ctx.edgeEpoch = 0
	}
	ctx.edgeEpoch++
	return ctx.edgeEpoch
}

func (ctx *QueryCtx) nextCntEpoch() int32 {
	if ctx.cntEpoch == math.MaxInt32 {
		clear(ctx.cntStamp)
		ctx.cntEpoch = 0
	}
	ctx.cntEpoch++
	return ctx.cntEpoch
}

// accumulate runs the counting core of Algorithm 4 for leaf v into the
// dense scratch: after it returns, ctx.touched lists every leaf u with a
// stamped count, and ctx.cnt[u] is |p-edges| - |n-edges| covering {v,u}.
func (ctx *QueryCtx) accumulate(v int32) {
	cs := ctx.cs
	chain := cs.chainOf(v)
	ancEp := ctx.nextAncEpoch()
	for _, x := range chain {
		ctx.ancU[x] = ancEp
	}
	edgeEp := ctx.nextEdgeEpoch()
	cntEp := ctx.nextCntEpoch()
	ctx.touched = ctx.touched[:0]
	for _, x := range chain {
		for _, ei := range cs.incAdj[cs.incOff[x]:cs.incOff[x+1]] {
			if ctx.edgeStamp[ei] == edgeEp {
				continue
			}
			ctx.edgeStamp[ei] = edgeEp
			a, b := cs.edgeA[ei], cs.edgeB[ei]
			vInA := ctx.ancU[a] == ancEp
			vInB := ctx.ancU[b] == ancEp
			var span []int32
			switch {
			case vInA && vInB:
				// Nested endpoints (or a self-loop on an ancestor): the
				// pair {v,u} is covered iff u is in the larger endpoint.
				if cs.vertsOff[a+1]-cs.vertsOff[a] >= cs.vertsOff[b+1]-cs.vertsOff[b] {
					span = cs.vertsOf(a)
				} else {
					span = cs.vertsOf(b)
				}
			case vInA:
				span = cs.vertsOf(b)
			default:
				span = cs.vertsOf(a)
			}
			sign := int32(cs.edgeSign[ei])
			for _, u := range span {
				if ctx.cntStamp[u] != cntEp {
					ctx.cntStamp[u] = cntEp
					ctx.cnt[u] = 0
					ctx.touched = append(ctx.touched, u)
				}
				ctx.cnt[u] += sign
			}
		}
	}
}

// NeighborsOf returns the sorted neighbors of leaf v in the represented
// graph (Algorithm 4). The result aliases the context's buffer and is
// valid until the next call on this context; copy it to retain it.
// Allocation-free at steady state.
func (ctx *QueryCtx) NeighborsOf(v int32) []int32 {
	ctx.accumulate(v)
	ctx.out = ctx.out[:0]
	for _, u := range ctx.touched {
		if u != v && ctx.cnt[u] > 0 {
			ctx.out = append(ctx.out, u)
		}
	}
	slices.Sort(ctx.out)
	return ctx.out
}

// HasEdge reports whether the represented graph contains {u,v}: the
// point query sums the signs of superedges covering the pair, touching
// only the two ancestor chains. Allocation-free at steady state.
func (ctx *QueryCtx) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	cs := ctx.cs
	chainU, chainV := cs.chainOf(u), cs.chainOf(v)
	ancEp := ctx.nextAncEpoch()
	for _, x := range chainU {
		ctx.ancU[x] = ancEp
	}
	for _, x := range chainV {
		ctx.ancV[x] = ancEp
	}
	edgeEp := ctx.nextEdgeEpoch()
	var net int32
	count := func(chain []int32) {
		for _, x := range chain {
			for _, ei := range cs.incAdj[cs.incOff[x]:cs.incOff[x+1]] {
				if ctx.edgeStamp[ei] == edgeEp {
					continue
				}
				ctx.edgeStamp[ei] = edgeEp
				a, b := cs.edgeA[ei], cs.edgeB[ei]
				// The edge covers {u,v} iff one endpoint contains u and
				// the other contains v (an endpoint containing both
				// counts for either side).
				if (ctx.ancU[a] == ancEp && ctx.ancV[b] == ancEp) ||
					(ctx.ancU[b] == ancEp && ctx.ancV[a] == ancEp) {
					net += int32(cs.edgeSign[ei])
				}
			}
		}
	}
	count(chainU)
	count(chainV)
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
