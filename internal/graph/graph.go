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
	"sort"
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
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
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
	n     int32
	edges [][2]int32
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
	b.edges = append(b.edges, [2]int32{u, v})
}

// NumPendingEdges returns the number of (possibly duplicated) edges
// recorded so far.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build finalizes the graph: deduplicates edges and constructs CSR
// storage. The Builder remains usable (further AddEdge calls and a
// second Build produce a larger graph).
func (b *Builder) Build() *Graph {
	uniq := b.edges[:b.dedup()]
	n := int(b.n)
	deg := make([]int64, n+1)
	for _, e := range uniq {
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	offsets := make([]int64, n+1)
	for i := 1; i <= n; i++ {
		offsets[i] = offsets[i-1] + deg[i]
	}
	adj := make([]int32, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range uniq {
		adj[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		adj[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	g := &Graph{offsets: offsets, adj: adj, m: int64(len(uniq))}
	// CSR windows are sorted because edges were added in sorted order
	// for the first endpoint, but the second-endpoint insertions are
	// interleaved; sort each window to restore the invariant.
	for v := 0; v < n; v++ {
		w := adj[offsets[v]:offsets[v+1]]
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	}
	return g
}

// dedup sorts the pending edges and drops repeats, in place, and
// returns how many distinct edges remain.
func (b *Builder) dedup() int {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	uniq := b.edges[:0]
	var last [2]int32 = [2]int32{-1, -1}
	for _, e := range b.edges {
		if e != last {
			uniq = append(uniq, e)
			last = e
		}
	}
	b.edges = uniq
	return len(uniq)
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
