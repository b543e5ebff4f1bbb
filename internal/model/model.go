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

	"repro/internal/graph"
)

// Edge is a signed superedge: Sign = +1 for a p-edge, -1 for an n-edge.
// A == B denotes a self-loop (all pairs within the supernode).
type Edge struct {
	A, B int32
	Sign int8
}

// Summary is an immutable hierarchical graph summarization model.
// Build one with New; query it through Compile.
type Summary struct {
	N      int     // number of vertices (= leaf supernodes 0..N-1)
	Parent []int32 // len = NumSupernodes; -1 for roots
	Edges  []Edge  // P+ ∪ P-, canonicalized with A <= B
	pCount int64
	nCount int64
	hCount int64
}

// New constructs a Summary. parent must describe a forest whose first
// n entries are the leaf supernodes (a leaf may also be a root). Panics
// on malformed input (cycles, internal supernodes without children).
func New(n int, parent []int32, edges []Edge) *Summary {
	s := &Summary{N: n, Parent: parent}
	total := len(parent)
	if total < n {
		panic("model: parent array shorter than vertex count")
	}
	// state: 0 unvisited, 1 has a child, 2 on the current parent walk,
	// 3 its chain reaches a root.
	state := make([]int8, total)
	for c, p := range parent {
		if p >= 0 {
			if int(p) >= total {
				panic(fmt.Sprintf("model: parent %d out of range", p))
			}
			// Parents must be internal supernodes, so the leaves are
			// exactly the supernodes without children.
			if int(p) < n {
				panic(fmt.Sprintf("model: parent of %d is leaf supernode %d", c, p))
			}
			state[p] = 1
			s.hCount++
		}
	}
	for sn := n; sn < total; sn++ {
		if state[sn] == 0 {
			panic(fmt.Sprintf("model: internal supernode %d has no children", sn))
		}
	}
	// Each supernode is walked up once: a walk stops at the first
	// supernode already known to reach a root, so the check is O(|S|).
	for sn := n; sn < total; sn++ {
		x := int32(sn)
		for ; x >= 0 && state[x] != 3; x = parent[x] {
			if state[x] == 2 {
				panic("model: hierarchy contains a cycle")
			}
			state[x] = 2
		}
		for x = int32(sn); x >= 0 && state[x] == 2; x = parent[x] {
			state[x] = 3
		}
	}
	s.Edges = make([]Edge, len(edges))
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
		if e.Sign > 0 {
			s.pCount++
		} else {
			s.nCount++
		}
	}
	return s
}

// NumSupernodes returns |S|.
func (s *Summary) NumSupernodes() int { return len(s.Parent) }

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

// Decode reconstructs the full represented graph by running partial
// decompression (Algorithm 4) from every vertex on the compiled form.
func (s *Summary) Decode() *graph.Graph { return s.Compile().Decode() }

// Validate checks that the summary exactly represents g, with every
// subnode pair count in {0,1}; see DeltaOverlay.Validate, which it runs
// on the empty overlay of the compiled summary.
func (s *Summary) Validate(g *graph.Graph) error { return NewOverlay(s.Compile()).Validate(g) }

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
