package model

// This file implements federated serving over a sharded summary: a
// ShardedCompiled owns one CompiledSummary per shard (in shard-local
// ids) plus the boundary edges that cross shards, and answers global
// queries by routing them. NeighborsOf merges the owning shard's
// compiled answer (translated to global ids) with the vertex's boundary
// adjacency; HasEdge routes by the endpoints' shard pair — the owning
// shard's engine for intra-shard pairs, a binary search of the boundary
// CSR for cross-shard ones. Like CompiledSummary, all per-query state
// lives in a pooled context, so one ShardedCompiled serves any number
// of concurrent readers.
//
// The routing half of the structure — which shard owns each global
// vertex, the local↔global id maps, and the boundary-edge CSR — stands
// alone as Routing, so a network coordinator (internal/fed) can route
// queries to remote shard servers with exactly the same logic this file
// uses to route them to in-process engines.

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/graph"
)

// Routing is the shard-ownership and boundary structure of a sharded
// summary, independent of how the per-shard summaries are hosted: it
// answers "which shard owns vertex v", translates between global and
// shard-local ids, and holds the cross-shard (boundary) adjacency as a
// CSR with sorted windows. Immutable after construction and safe for
// any number of concurrent readers.
type Routing struct {
	n        int
	shardOf  []int32   // global id -> owning shard
	localOf  []int32   // global id -> local id within the shard
	globalID [][]int32 // shard -> local id -> global id (ascending)

	// Boundary adjacency in global ids, CSR with sorted windows:
	// cross-shard neighbors of v are bAdj[bOff[v]:bOff[v+1]].
	bOff     []int64
	bAdj     []int32
	boundary int // number of cross-shard edges
}

// NewRouting builds the routing structure for a sharded summary.
// globalID[s][l] maps shard s's local vertex l to its global id; the
// maps must form a bijection onto 0..n-1 (n = total vertices across
// shards) with each list strictly ascending. boundary lists the
// cross-shard edges in global ids; endpoints must belong to different
// shards and no edge may repeat.
func NewRouting(globalID [][]int32, boundary [][2]int32) (*Routing, error) {
	if len(globalID) == 0 {
		return nil, fmt.Errorf("model: routing needs at least one shard")
	}
	n := 0
	for _, ids := range globalID {
		n += len(ids)
	}
	rt := &Routing{
		n:        n,
		shardOf:  make([]int32, n),
		localOf:  make([]int32, n),
		globalID: globalID,
		boundary: len(boundary),
	}
	assigned := make([]bool, n)
	for s, ids := range globalID {
		prev := int32(-1)
		for l, v := range ids {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("model: shard %d maps local %d to out-of-range global %d", s, l, v)
			}
			if v <= prev {
				return nil, fmt.Errorf("model: shard %d id map not strictly ascending at local %d", s, l)
			}
			prev = v
			if assigned[v] {
				return nil, fmt.Errorf("model: global vertex %d owned by two shards", v)
			}
			assigned[v] = true
			rt.shardOf[v] = int32(s)
			rt.localOf[v] = int32(l)
		}
	}
	// Bijection: n ids over n slots with no duplicates covers everything.

	deg := make([]int64, n+1)
	for i, e := range boundary {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("model: boundary edge %d endpoint out of range", i)
		}
		if u == v {
			return nil, fmt.Errorf("model: boundary edge %d is a self-loop on %d", i, u)
		}
		if rt.shardOf[u] == rt.shardOf[v] {
			return nil, fmt.Errorf("model: boundary edge %d (%d,%d) lies inside shard %d", i, u, v, rt.shardOf[u])
		}
		deg[u+1]++
		deg[v+1]++
	}
	rt.bOff = make([]int64, n+1)
	for v := 1; v <= n; v++ {
		rt.bOff[v] = rt.bOff[v-1] + deg[v]
	}
	rt.bAdj = make([]int32, rt.bOff[n])
	cursor := make([]int64, n)
	copy(cursor, rt.bOff[:n])
	for _, e := range boundary {
		u, v := e[0], e[1]
		rt.bAdj[cursor[u]] = v
		cursor[u]++
		rt.bAdj[cursor[v]] = u
		cursor[v]++
	}
	for v := 0; v < n; v++ {
		w := rt.bAdj[rt.bOff[v]:rt.bOff[v+1]]
		slices.Sort(w)
		for i := 1; i < len(w); i++ {
			if w[i] == w[i-1] {
				return nil, fmt.Errorf("model: duplicate boundary edge (%d,%d)", v, w[i])
			}
		}
	}
	return rt, nil
}

// NumNodes returns the number of global leaf vertices.
func (rt *Routing) NumNodes() int { return rt.n }

// NumShards returns the number of shards.
func (rt *Routing) NumShards() int { return len(rt.globalID) }

// ShardOf returns the shard owning global vertex v.
func (rt *Routing) ShardOf(v int32) int32 { return rt.shardOf[v] }

// LocalOf returns v's local id within its owning shard.
func (rt *Routing) LocalOf(v int32) int32 { return rt.localOf[v] }

// GlobalIDs returns shard s's ascending local→global id map. The
// returned slice is shared; callers must not mutate it.
func (rt *Routing) GlobalIDs(s int) []int32 { return rt.globalID[s] }

// ShardSize returns the number of vertices owned by shard s.
func (rt *Routing) ShardSize(s int) int { return len(rt.globalID[s]) }

// NumBoundaryEdges returns the number of cross-shard edges.
func (rt *Routing) NumBoundaryEdges() int { return rt.boundary }

// BoundaryOf returns v's sorted cross-shard neighbors in global ids.
// The returned slice is shared; callers must not mutate it.
func (rt *Routing) BoundaryOf(v int32) []int32 {
	return rt.bAdj[rt.bOff[v]:rt.bOff[v+1]]
}

// BoundaryHasEdge reports whether {u,v} is a cross-shard edge, by
// binary search of the smaller endpoint window.
func (rt *Routing) BoundaryHasEdge(u, v int32) bool {
	wu, wv := rt.BoundaryOf(u), rt.BoundaryOf(v)
	w, target := wu, v
	if len(wv) < len(wu) {
		w, target = wv, u
	}
	i := sort.Search(len(w), func(i int) bool { return w[i] >= target })
	return i < len(w) && w[i] == target
}

// MergeBoundary merges a shard's local neighbor answer (ascending local
// ids, translated through gid) with v's boundary adjacency into out
// (the two sets are disjoint for a well-formed sharded summary). It
// returns the appended slice.
func (rt *Routing) MergeBoundary(out []int32, v int32, local []int32, gid []int32) []int32 {
	bnd := rt.BoundaryOf(v)
	i, j := 0, 0
	for i < len(local) && j < len(bnd) {
		if g := gid[local[i]]; g < bnd[j] {
			out = append(out, g)
			i++
		} else {
			out = append(out, bnd[j])
			j++
		}
	}
	for ; i < len(local); i++ {
		out = append(out, gid[local[i]])
	}
	return append(out, bnd[j:]...)
}

// ShardedCompiled is an immutable federation of per-shard compiled
// summaries behind the global vertex-id space. Safe for any number of
// concurrent readers; per-query scratch lives in ShardedCtx.
type ShardedCompiled struct {
	*Routing
	shards  []*CompiledSummary
	version uint64

	ctxPool sync.Pool
}

// NewShardedCompiled federates per-shard compiled summaries into one
// queryable engine. globalID and boundary obey the NewRouting
// contract; additionally each shard's vertex count must match its id
// map.
func NewShardedCompiled(shards []*CompiledSummary, globalID [][]int32, boundary [][2]int32) (*ShardedCompiled, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("model: sharded summary needs at least one shard")
	}
	if len(globalID) != len(shards) {
		return nil, fmt.Errorf("model: %d shards but %d id maps", len(shards), len(globalID))
	}
	for s, cs := range shards {
		if cs.NumNodes() != len(globalID[s]) {
			return nil, fmt.Errorf("model: shard %d has %d vertices but an id map of %d", s, cs.NumNodes(), len(globalID[s]))
		}
	}
	rt, err := NewRouting(globalID, boundary)
	if err != nil {
		return nil, err
	}
	return &ShardedCompiled{Routing: rt, shards: shards}, nil
}

// Shard returns shard s's compiled summary (in shard-local ids).
func (sc *ShardedCompiled) Shard(s int) *CompiledSummary { return sc.shards[s] }

// NumSupernodes returns the total supernode count across shards.
func (sc *ShardedCompiled) NumSupernodes() int {
	total := 0
	for _, cs := range sc.shards {
		total += cs.NumSupernodes()
	}
	return total
}

// NumSuperedges returns the total superedge count across shards.
func (sc *ShardedCompiled) NumSuperedges() int {
	total := 0
	for _, cs := range sc.shards {
		total += cs.NumSuperedges()
	}
	return total
}

// Version returns the identity of the summarized content, for cache
// keying (the counterpart of DeltaOverlay.Version) and the
// X-Summary-Version response header. A sharded compilation is
// immutable, so the version never changes after construction; it is 0
// ("unversioned") until SetVersion threads through a real content
// version — slug.Sharded.Queryable derives one from the artifact's
// epoch digest, so every sharded engine reached through the public API
// reports the same version a network coordinator computes for the same
// envelope.
func (sc *ShardedCompiled) Version() uint64 { return sc.version }

// SetVersion records the content version reported by Version. Call it
// once, before the engine is shared with concurrent readers.
func (sc *ShardedCompiled) SetVersion(v uint64) { sc.version = v }

// ShardedCtx is the per-goroutine query context for a ShardedCompiled:
// per-shard compiled contexts (acquired lazily, kept across queries)
// plus a merge buffer. Not safe for concurrent use; acquire one per
// goroutine or traversal.
type ShardedCtx struct {
	sc   *ShardedCompiled
	ctxs []*QueryCtx
	out  []int32
}

// AcquireCtx borrows a query context from the pool. Release it with
// ReleaseCtx.
func (sc *ShardedCompiled) AcquireCtx() *ShardedCtx {
	if v := sc.ctxPool.Get(); v != nil {
		return v.(*ShardedCtx)
	}
	return &ShardedCtx{sc: sc, ctxs: make([]*QueryCtx, len(sc.shards))}
}

// ReleaseCtx returns a context to the pool. The per-shard compiled
// contexts stay attached, so a recycled context queries warm.
func (sc *ShardedCompiled) ReleaseCtx(ctx *ShardedCtx) { sc.ctxPool.Put(ctx) }

// shardCtx returns the compiled context for shard s, acquiring it on
// first use.
func (c *ShardedCtx) shardCtx(s int32) *QueryCtx {
	if c.ctxs[s] == nil {
		//slugvet:ok poolpair (deliberate retention: the ShardedCtx is itself pooled and keeps per-shard contexts warm across borrows)
		c.ctxs[s] = c.sc.shards[s].AcquireCtx()
	}
	return c.ctxs[s]
}

// NeighborsOf returns the sorted global neighbors of leaf v: the owning
// shard's compiled answer translated to global ids, merged with v's
// boundary adjacency (the two sets are disjoint by construction). The
// result aliases the context's buffer and is valid until the next call;
// copy it to retain it.
func (c *ShardedCtx) NeighborsOf(v int32) []int32 {
	sc := c.sc
	s := sc.shardOf[v]
	local := c.shardCtx(s).NeighborsOf(sc.localOf[v])
	c.out = sc.MergeBoundary(c.out[:0], v, local, sc.globalID[s])
	return c.out
}

// HasEdge reports whether the represented graph contains {u,v}: the
// owning shard's point query when both endpoints share a shard, a
// binary search of the smaller boundary window otherwise.
func (c *ShardedCtx) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	sc := c.sc
	su, sv := sc.shardOf[u], sc.shardOf[v]
	if su == sv {
		return c.shardCtx(su).HasEdge(sc.localOf[u], sc.localOf[v])
	}
	return sc.BoundaryHasEdge(u, v)
}

// NeighborsOf is the context-free convenience form: it returns a
// freshly allocated copy of the neighbor list, safe to retain. Safe for
// concurrent callers.
func (sc *ShardedCompiled) NeighborsOf(v int32) []int32 {
	ctx := sc.AcquireCtx()
	out := slices.Clone(ctx.NeighborsOf(v))
	sc.ReleaseCtx(ctx)
	return out
}

// HasEdge is the context-free convenience form of ShardedCtx.HasEdge.
// Safe for concurrent callers.
func (sc *ShardedCompiled) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	if sc.shardOf[u] != sc.shardOf[v] {
		return sc.BoundaryHasEdge(u, v) // no context needed
	}
	ctx := sc.AcquireCtx()
	ok := ctx.HasEdge(u, v)
	sc.ReleaseCtx(ctx)
	return ok
}

// NeighborsBatch decompresses the neighborhoods of vs in order through
// one pooled context, invoking visit with each vertex and its sorted
// global neighbors. The nbrs slice is only valid during the callback.
func (sc *ShardedCompiled) NeighborsBatch(vs []int32, visit func(v int32, nbrs []int32)) {
	ctx := sc.AcquireCtx()
	defer sc.ReleaseCtx(ctx)
	for _, v := range vs {
		visit(v, ctx.NeighborsOf(v))
	}
}

// MulAdj computes dst = A·x for the federated graph's adjacency matrix:
// each shard's product (CompiledSummary.MulAdj) carried through its id
// map, plus the boundary edges. It reports false, leaving dst alone,
// when any shard's MulAdj would. Safe for concurrent callers.
func (sc *ShardedCompiled) MulAdj(dst, x []float64) bool {
	size := 0
	for _, cs := range sc.shards {
		if !cs.adjPlan().eligible {
			return false
		}
		size = max(size, cs.n)
	}
	buf := make([]float64, 2*size)
	for s, cs := range sc.shards {
		gid := sc.globalID[s]
		lx, ldst := buf[:len(gid)], buf[size:size+len(gid)]
		for l, g := range gid {
			lx[l] = x[g]
		}
		cs.MulAdj(ldst, lx)
		for l, g := range gid {
			dst[g] = ldst[l]
		}
	}
	for v := range dst {
		for _, u := range sc.BoundaryOf(int32(v)) {
			dst[v] += x[u]
		}
	}
	return true
}

// Decode reconstructs the full represented graph (all shards plus the
// boundary sidecar) in global ids.
func (sc *ShardedCompiled) Decode() *graph.Graph {
	b := graph.NewBuilder(sc.n)
	ctx := sc.AcquireCtx()
	defer sc.ReleaseCtx(ctx)
	for v := int32(0); v < int32(sc.n); v++ {
		for _, u := range ctx.NeighborsOf(v) {
			if u > v {
				b.AddEdge(v, u)
			}
		}
	}
	return b.Build()
}
