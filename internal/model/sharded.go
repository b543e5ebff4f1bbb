package model

// This file holds the two views of a sharded summary: one Summary per
// shard (in shard-local ids), plus the boundary edges that cross shards.
//
// In process, a sharded summary is one hierarchy. The paper's model
// (Sect. II-B) allows p-edges between any two supernodes, leaves
// included. So Union lays the shards' trees side by side under global
// ids and adds each boundary edge as a leaf–leaf p-edge. The result is
// an ordinary Summary at exactly Σ Cost(shard) + |cut|, which compiles
// and serves like any other.
//
// Across processes, a network coordinator (internal/fed) keeps only
// the routing half: which shard owns each global vertex, the
// local↔global id maps, and the boundary-edge CSR (Routing). The shard
// summaries live in remote shard servers.
//
// CheckSharding is the one validator of the partition, shared by both.

import (
	"fmt"
	"slices"
	"sort"
)

// CheckSharding validates the partition of a sharded summary and
// returns, for every global vertex, its owning shard and its local id.
// globalID[s][l] maps shard s's local vertex l to its global id; the
// maps must form a bijection onto 0..n-1 (n = total vertices across
// shards), each strictly ascending. boundary lists the cross-shard
// edges {u,v} in global ids with u < v, in strictly increasing
// lexicographic order, so no edge repeats; the two endpoints of each
// must belong to different shards.
func CheckSharding(globalID [][]int32, boundary [][2]int32) (shardOf, localOf []int32, err error) {
	if len(globalID) == 0 {
		return nil, nil, fmt.Errorf("model: a sharded summary needs at least one shard")
	}
	n := 0
	for _, ids := range globalID {
		n += len(ids)
	}
	shardOf, localOf = make([]int32, n), make([]int32, n)
	assigned := make([]bool, n)
	for s, ids := range globalID {
		prev := int32(-1)
		for l, v := range ids {
			switch {
			case v < 0 || int(v) >= n:
				return nil, nil, fmt.Errorf("model: shard %d maps local %d to out-of-range global %d", s, l, v)
			case v <= prev:
				return nil, nil, fmt.Errorf("model: shard %d id map not strictly ascending at local %d", s, l)
			case assigned[v]:
				return nil, nil, fmt.Errorf("model: global vertex %d owned by two shards", v)
			}
			prev = v
			assigned[v] = true
			shardOf[v], localOf[v] = int32(s), int32(l)
		}
	}
	// Bijection: n ids over n slots with no duplicates covers everything.

	for i, e := range boundary {
		u, v := e[0], e[1]
		if u < 0 || u >= v || int(v) >= n {
			return nil, nil, fmt.Errorf("model: boundary edge %d (%d,%d) malformed: want 0 <= u < v < %d", i, u, v, n)
		}
		if i > 0 && (boundary[i-1][0] > u || boundary[i-1][0] == u && boundary[i-1][1] >= v) {
			return nil, nil, fmt.Errorf("model: boundary edge %d (%d,%d) repeats or is out of order", i, u, v)
		}
		if shardOf[u] == shardOf[v] {
			return nil, nil, fmt.Errorf("model: boundary edge %d (%d,%d) lies inside shard %d", i, u, v, shardOf[u])
		}
	}
	return shardOf, localOf, nil
}

// Union joins the summaries of a sharded build into one summary over
// the global id space: shard s's leaf l becomes leaf globalID[s][l],
// its internal supernodes are renumbered after the n leaves, shard by
// shard, and every boundary edge becomes a p-edge between two leaves.
// Edges keep their order, shard by shard, with the boundary last, so
// for one shard the union is the shard's summary itself. Its cost is
// the shards' costs plus the boundary edges. globalID and boundary obey
// CheckSharding; shards[s] must have len(globalID[s]) leaves.
func Union(shards []*Summary, globalID [][]int32, boundary [][2]int32) (*Summary, error) {
	if len(shards) != len(globalID) {
		return nil, fmt.Errorf("model: %d shards but %d id maps", len(shards), len(globalID))
	}
	if _, _, err := CheckSharding(globalID, boundary); err != nil {
		return nil, err
	}
	n, total, edges := 0, 0, len(boundary)
	for s, sh := range shards {
		if sh.N != len(globalID[s]) {
			return nil, fmt.Errorf("model: shard %d has %d vertices but an id map of %d", s, sh.N, len(globalID[s]))
		}
		n += sh.N
		total += len(sh.Parent)
		edges += len(sh.Edges)
	}
	parent := make([]int32, total)
	out := make([]Edge, 0, edges)
	next := int32(n) // global id of the current shard's first internal supernode
	for s, sh := range shards {
		gid, leaves := globalID[s], int32(sh.N)
		id := func(x int32) int32 {
			if x < leaves {
				return gid[x]
			}
			return next + x - leaves
		}
		for x, p := range sh.Parent {
			if p >= 0 {
				p = id(p)
			}
			parent[id(int32(x))] = p
		}
		for _, e := range sh.Edges {
			out = append(out, Edge{A: id(e.A), B: id(e.B), Sign: e.Sign})
		}
		next += int32(len(sh.Parent)) - leaves
	}
	for _, e := range boundary {
		out = append(out, Edge{A: e[0], B: e[1], Sign: 1})
	}
	return New(n, parent, out), nil
}

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

// NewRouting builds the routing structure for a sharded summary whose
// id maps and boundary edges obey CheckSharding.
func NewRouting(globalID [][]int32, boundary [][2]int32) (*Routing, error) {
	shardOf, localOf, err := CheckSharding(globalID, boundary)
	if err != nil {
		return nil, err
	}
	n := len(shardOf)
	rt := &Routing{
		n:        n,
		shardOf:  shardOf,
		localOf:  localOf,
		globalID: globalID,
		boundary: len(boundary),
		bOff:     make([]int64, n+1),
	}
	for _, e := range boundary {
		rt.bOff[e[0]+1]++
		rt.bOff[e[1]+1]++
	}
	for v := 1; v <= n; v++ {
		rt.bOff[v] += rt.bOff[v-1]
	}
	// The boundary is in lexicographic order, so vertex x's window is
	// filled with its smaller neighbors ascending (from the edges (u,x))
	// before its larger ones ascending (from (x,v)): sorted as it fills.
	rt.bAdj = make([]int32, rt.bOff[n])
	cursor := slices.Clone(rt.bOff[:n])
	for _, e := range boundary {
		u, v := e[0], e[1]
		rt.bAdj[cursor[u]] = v
		cursor[u]++
		rt.bAdj[cursor[v]] = u
		cursor[v]++
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
