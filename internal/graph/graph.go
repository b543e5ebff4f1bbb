// Package graph provides the undirected simple-graph substrate used by
// all summarization algorithms in this repository: a compact CSR
// (compressed sparse row) representation, a deduplicating builder,
// edge-list IO, synthetic generators, and node-sampled subgraphs.
//
// Graphs are unweighted, undirected and simple (no self-loops, no
// parallel edges), matching the input model of the SLUGGER paper
// (Sect. II). Vertices are dense integers 0..N-1.
package graph

import (
	"fmt"
	"slices"
)

// Graph is an immutable undirected simple graph in CSR form.
// Each undirected edge {u,v} is stored twice (in the adjacency of both
// endpoints); adjacency lists are sorted ascending, enabling binary
// search in HasEdge.
type Graph struct {
	offsets []int64 // len N+1
	adj     []int32 // len 2*M, sorted within each vertex's window
	m       int64   // number of undirected edges
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return g.m }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge {u,v} exists.
// Self-loops never exist. Runs in O(log deg(u)).
func (g *Graph) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	// Search in the smaller adjacency list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, found := slices.BinarySearch(g.Neighbors(u), v)
	return found
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v int32)) {
	n := int32(g.NumNodes())
	for u := int32(0); u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				fn(u, v)
			}
		}
	}
}

// Edges returns all undirected edges with u < v, in sorted order.
func (g *Graph) Edges() [][2]int32 {
	out := make([][2]int32, 0, g.m)
	g.ForEachEdge(func(u, v int32) { out = append(out, [2]int32{u, v}) })
	return out
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(int32(v)); d > max {
			max = d
		}
	}
	return max
}

// String returns a short human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumNodes(), g.m)
}

// Builder accumulates edges and produces a Graph. It removes
// self-loops, ignores edge direction and deduplicates parallel edges,
// mirroring the preprocessing applied to the paper's datasets
// ("We removed all edge directions, duplicated edges, and self-loops",
// Sect. IV-A).
type Builder struct {
	n    int32
	keys []uint64 // one per edge: u<<32 | v with u < v, so keys sort as (u, v)
}

// NewBuilder returns a Builder for a graph with at least n vertices.
// AddEdge may grow the vertex count beyond n.
func NewBuilder(n int) *Builder {
	return &Builder{n: int32(n)}
}

// AddEdge records the undirected edge {u,v}. Self-loops are dropped.
// Negative endpoints panic; endpoints beyond the current vertex count
// grow the graph.
func (b *Builder) AddEdge(u, v int32) {
	if u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: negative vertex id (%d,%d)", u, v))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	if v >= b.n {
		b.n = v + 1
	}
	b.keys = append(b.keys, uint64(u)<<32|uint64(v))
}

// NumPendingEdges returns the number of (possibly duplicated) edges
// recorded so far.
func (b *Builder) NumPendingEdges() int { return len(b.keys) }

// Build finalizes the graph: deduplicates edges and constructs CSR
// storage. The Builder remains usable (further AddEdge calls and a
// second Build produce a larger graph).
func (b *Builder) Build() *Graph {
	keys := b.keys[:b.dedup()]
	n := int(b.n)
	// offsets[v+1] counts v's degree, then becomes v's fill cursor
	// (starting at v's window), and ends as the end of v's window.
	offsets := make([]int64, n+1)
	for _, k := range keys {
		offsets[k>>32+1]++
		offsets[uint32(k)+1]++
	}
	var sum int64
	for v := 1; v <= n; v++ {
		offsets[v], sum = sum, sum+offsets[v]
	}
	// Visiting edges in (u, v) order fills each window ascending: first
	// its smaller neighbors (as v, in u order), then its larger ones.
	adj := make([]int32, sum)
	for _, k := range keys {
		u, v := uint32(k>>32), uint32(k)
		adj[offsets[u+1]] = int32(v)
		offsets[u+1]++
		adj[offsets[v+1]] = int32(u)
		offsets[v+1]++
	}
	return &Graph{offsets: offsets, adj: adj, m: int64(len(keys))}
}

// dedup sorts the pending edges and drops repeats, in place, and
// returns how many distinct edges remain.
func (b *Builder) dedup() int {
	slices.Sort(b.keys)
	b.keys = slices.Compact(b.keys)
	return len(b.keys)
}

// FromEdges builds a Graph with n vertices from an edge slice.
func FromEdges(n int, edges [][2]int32) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Equal reports whether two graphs have identical vertex counts and
// edge sets.
func Equal(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumNodes(); v++ {
		na, nb := a.Neighbors(int32(v)), b.Neighbors(int32(v))
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}
