// Package model implements the hierarchical graph summarization model
// G = (S, P+, P-, H) proposed in Sect. II-B of the SLUGGER paper.
//
// Supernodes form a forest described by parent pointers (the h-edges H
// are the parent->child edges of the forest). Vertices of the input
// graph are the leaf supernodes 0..N-1; internal supernodes have larger
// ids. P+ and P- are signed edges (including self-loops) between
// supernodes. The model represents the input graph exactly: an edge
// {u,v} exists iff there are more p-edges than n-edges between
// supernode pairs (A,B) with u∈A, v∈B.
package model

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Edge is a signed superedge: Sign = +1 for a p-edge, -1 for an n-edge.
// A == B denotes a self-loop (all pairs within the supernode).
type Edge struct {
	A, B int32
	Sign int8
}

// Summary is an immutable hierarchical graph summarization model.
// Build one with New; query it with NeighborsOf/Decode.
type Summary struct {
	N        int     // number of vertices (= leaf supernodes 0..N-1)
	Parent   []int32 // len = NumSupernodes; -1 for roots
	Edges    []Edge  // P+ ∪ P-, canonicalized with A <= B
	children [][]int32
	verts    [][]int32 // subnodes of each supernode (leaves share a backing array)
	incident [][]int32 // supernode -> indices into Edges
	pCount   int64
	nCount   int64
	hCount   int64
}

// New constructs a Summary and precomputes subnode lists and incidence
// indexes. parent must describe a forest whose first n entries are the
// leaf supernodes (a leaf may also be a root). Panics on malformed
// input (cycles, internal supernodes without children).
func New(n int, parent []int32, edges []Edge) *Summary {
	s := &Summary{N: n, Parent: parent}
	total := len(parent)
	if total < n {
		panic("model: parent array shorter than vertex count")
	}
	s.children = make([][]int32, total)
	for c, p := range parent {
		if p >= 0 {
			if int(p) >= total {
				panic(fmt.Sprintf("model: parent %d out of range", p))
			}
			// Parents must be internal supernodes: a leaf parent would
			// be invisible to computeVerts (leaves are pre-marked done),
			// letting parent cycles through a leaf slip past cycle
			// detection and hang every ancestor-chain walk.
			if int(p) < n {
				panic(fmt.Sprintf("model: parent of %d is leaf supernode %d", c, p))
			}
			s.children[p] = append(s.children[p], int32(c))
			s.hCount++
		}
	}
	for sn := n; sn < total; sn++ {
		if len(s.children[sn]) == 0 {
			panic(fmt.Sprintf("model: internal supernode %d has no children", sn))
		}
	}
	s.computeVerts()
	s.Edges = make([]Edge, len(edges))
	s.incident = make([][]int32, total)
	for i, e := range edges {
		if e.A > e.B {
			e.A, e.B = e.B, e.A
		}
		if e.Sign != 1 && e.Sign != -1 {
			panic(fmt.Sprintf("model: edge %d has sign %d", i, e.Sign))
		}
		if int(e.B) >= total || e.A < 0 {
			panic(fmt.Sprintf("model: edge %d endpoint out of range", i))
		}
		s.Edges[i] = e
		s.incident[e.A] = append(s.incident[e.A], int32(i))
		if e.B != e.A {
			s.incident[e.B] = append(s.incident[e.B], int32(i))
		}
		if e.Sign > 0 {
			s.pCount++
		} else {
			s.nCount++
		}
	}
	return s
}

// computeVerts fills verts via iterative post-order over the forest,
// detecting cycles.
func (s *Summary) computeVerts() {
	total := len(s.Parent)
	s.verts = make([][]int32, total)
	leafIDs := make([]int32, s.N)
	for v := 0; v < s.N; v++ {
		leafIDs[v] = int32(v)
		s.verts[v] = leafIDs[v : v+1]
	}
	state := make([]int8, total) // 0 unvisited, 1 in progress, 2 done
	for v := 0; v < s.N; v++ {
		state[v] = 2
	}
	for root := s.N; root < total; root++ {
		if state[root] != 0 {
			continue
		}
		// Iterative post-order from root.
		stack := []int32{int32(root)}
		for len(stack) > 0 {
			node := stack[len(stack)-1]
			switch state[node] {
			case 0:
				state[node] = 1
				for _, c := range s.children[node] {
					if state[c] == 1 {
						panic("model: hierarchy contains a cycle")
					}
					if state[c] == 0 {
						stack = append(stack, c)
					}
				}
			case 1:
				size := 0
				for _, c := range s.children[node] {
					size += len(s.verts[c])
				}
				vs := make([]int32, 0, size)
				for _, c := range s.children[node] {
					vs = append(vs, s.verts[c]...)
				}
				sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
				s.verts[node] = vs
				state[node] = 2
				stack = stack[:len(stack)-1]
			default:
				stack = stack[:len(stack)-1]
			}
		}
	}
}

// NumSupernodes returns |S|.
func (s *Summary) NumSupernodes() int { return len(s.Parent) }

// VertsOf returns the sorted subnodes of supernode sn. The returned
// slice aliases internal storage and must not be modified.
func (s *Summary) VertsOf(sn int32) []int32 { return s.verts[sn] }

// PCount returns |P+|.
func (s *Summary) PCount() int64 { return s.pCount }

// NCount returns |P-|.
func (s *Summary) NCount() int64 { return s.nCount }

// HCount returns |H| (number of hierarchy edges = non-root supernodes).
func (s *Summary) HCount() int64 { return s.hCount }

// Cost returns the encoding cost |P+| + |P-| + |H| (Eq. (1)).
func (s *Summary) Cost() int64 { return s.pCount + s.nCount + s.hCount }

// RelativeSize returns Cost / |E| (Eq. (10)).
func (s *Summary) RelativeSize(edges int64) float64 {
	if edges == 0 {
		return 0
	}
	return float64(s.Cost()) / float64(edges)
}

// MaxHeight returns the maximum height (in h-edges) over all hierarchy
// trees. A singleton root has height 0.
func (s *Summary) MaxHeight() int {
	depth := s.leafDepths()
	max := 0
	for _, d := range depth {
		if d > max {
			max = d
		}
	}
	return max
}

// AvgLeafDepth returns the mean depth of the leaf supernodes (Table IV
// and V metrics). A vertex that is itself a root has depth 0.
func (s *Summary) AvgLeafDepth() float64 {
	if s.N == 0 {
		return 0
	}
	depth := s.leafDepths()
	sum := 0
	for _, d := range depth {
		sum += d
	}
	return float64(sum) / float64(s.N)
}

func (s *Summary) leafDepths() []int {
	depth := make([]int, s.N)
	for v := 0; v < s.N; v++ {
		d := 0
		node := int32(v)
		for s.Parent[node] >= 0 {
			node = s.Parent[node]
			d++
			if d > len(s.Parent) {
				panic("model: parent chain longer than supernode count")
			}
		}
		depth[v] = d
	}
	return depth
}

// NeighborCounts implements the counting core of Algorithm 4 (partial
// decompression): it returns, for each candidate vertex u, the value
// |{p-edges covering {v,u}}| - |{n-edges covering {v,u}}|. The
// neighbors of v are exactly the keys with positive count. scratch may
// be nil; pass a reusable map to avoid allocation in tight loops.
func (s *Summary) NeighborCounts(v int32, scratch map[int32]int32) map[int32]int32 {
	if scratch == nil {
		scratch = make(map[int32]int32)
	} else {
		for k := range scratch {
			delete(scratch, k)
		}
	}
	// Collect ancestors (including the leaf itself).
	var ancestors []int32
	isAncestor := make(map[int32]bool, 8)
	node := v
	for {
		ancestors = append(ancestors, node)
		isAncestor[node] = true
		p := s.Parent[node]
		if p < 0 {
			break
		}
		node = p
	}
	seen := make(map[int32]bool, 8)
	for _, x := range ancestors {
		for _, ei := range s.incident[x] {
			if seen[ei] {
				continue
			}
			seen[ei] = true
			e := s.Edges[ei]
			vInA := isAncestor[e.A]
			vInB := isAncestor[e.B]
			var span []int32
			switch {
			case vInA && vInB:
				// Nested endpoints (or a self-loop on an ancestor): the
				// pair {v,u} is covered iff u is in the larger endpoint.
				if len(s.verts[e.A]) >= len(s.verts[e.B]) {
					span = s.verts[e.A]
				} else {
					span = s.verts[e.B]
				}
			case vInA:
				span = s.verts[e.B]
			default:
				span = s.verts[e.A]
			}
			for _, u := range span {
				scratch[u] += int32(e.Sign)
			}
		}
	}
	delete(scratch, v)
	return scratch
}

// NeighborsOf returns the sorted neighbors of v in the represented
// graph, decompressing only the relevant fraction of the model
// (Algorithm 4 of the paper).
//
// This map-based walk and HasEdge below are the reference oracle: the
// literal reading of the model that Decode and Validate share
// (NeighborCounts) and that parity tests hold every other
// representation to. Nothing serves or measures queries from it — that
// is CompiledSummary (Compile), an order of magnitude faster.
func (s *Summary) NeighborsOf(v int32) []int32 {
	counts := s.NeighborCounts(v, nil)
	out := make([]int32, 0, len(counts))
	for u, c := range counts {
		if c > 0 {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasEdge reports whether the represented graph contains the edge
// {u,v}, by summing the signs of the superedges covering the pair —
// a point query that touches only the two vertices' ancestor chains.
// Reference oracle, like NeighborsOf.
func (s *Summary) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	anc := func(x int32) map[int32]bool {
		out := make(map[int32]bool, 4)
		for {
			out[x] = true
			p := s.Parent[x]
			if p < 0 {
				return out
			}
			x = p
		}
	}
	ancU, ancV := anc(u), anc(v)
	seen := make(map[int32]bool, 8)
	var net int32
	for x := range ancU {
		for _, ei := range s.incident[x] {
			if seen[ei] {
				continue
			}
			seen[ei] = true
			e := s.Edges[ei]
			// The edge covers {u,v} iff one endpoint contains u and the
			// other contains v (an endpoint containing both counts for
			// either side).
			if (ancU[e.A] && ancV[e.B]) || (ancU[e.B] && ancV[e.A]) {
				net += int32(e.Sign)
			}
		}
	}
	for x := range ancV {
		for _, ei := range s.incident[x] {
			if seen[ei] {
				continue
			}
			seen[ei] = true
			e := s.Edges[ei]
			if (ancU[e.A] && ancV[e.B]) || (ancU[e.B] && ancV[e.A]) {
				net += int32(e.Sign)
			}
		}
	}
	return net > 0
}

// Decode reconstructs the full represented graph by running partial
// decompression from every vertex.
func (s *Summary) Decode() *graph.Graph {
	b := graph.NewBuilder(s.N)
	scratch := make(map[int32]int32)
	for v := int32(0); v < int32(s.N); v++ {
		scratch = s.NeighborCounts(v, scratch)
		for u, c := range scratch {
			if c > 0 && u > v {
				b.AddEdge(v, u)
			}
		}
	}
	return b.Build()
}

// Validate checks that the summary exactly represents g and that every
// subnode pair has a p-minus-n count in {0,1} (the restriction SLUGGER
// maintains, Sect. III-B3). It returns a descriptive error on the first
// violation found.
func (s *Summary) Validate(g *graph.Graph) error {
	if g.NumNodes() != s.N {
		return fmt.Errorf("model: vertex count %d != graph %d", s.N, g.NumNodes())
	}
	scratch := make(map[int32]int32)
	for v := int32(0); v < int32(s.N); v++ {
		scratch = s.NeighborCounts(v, scratch)
		for u, c := range scratch {
			if c < 0 || c > 1 {
				return fmt.Errorf("model: pair (%d,%d) has net count %d, outside {0,1}", v, u, c)
			}
			if (c > 0) != g.HasEdge(v, u) {
				return fmt.Errorf("model: pair (%d,%d) decoded %v, graph has %v", v, u, c > 0, g.HasEdge(v, u))
			}
		}
		// Edges of g incident to v must all be covered.
		for _, u := range g.Neighbors(v) {
			if scratch[u] != 1 {
				return fmt.Errorf("model: edge (%d,%d) has net count %d, want 1", v, u, scratch[u])
			}
		}
	}
	return nil
}

// Composition reports the share of each edge type in the output
// (Fig. 6 of the paper). Shares sum to 1 unless the model is empty.
type Composition struct {
	PShare, NShare, HShare float64
}

// Composition returns the edge-type shares of the encoding.
func (s *Summary) Composition() Composition {
	total := float64(s.Cost())
	if total == 0 {
		return Composition{}
	}
	return Composition{
		PShare: float64(s.pCount) / total,
		NShare: float64(s.nCount) / total,
		HShare: float64(s.hCount) / total,
	}
}
