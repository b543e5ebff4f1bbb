package graph

import "math/rand"

// NodeSample returns the induced subgraph on a uniformly random subset
// of approximately frac*N vertices, with vertices relabeled densely.
// This is the subgraph-scaling method used for the paper's Fig. 1(b)
// scalability experiment ("sampling different numbers of nodes from the
// UK-05 dataset").
func NodeSample(g *Graph, frac float64, seed int64) *Graph {
	if frac <= 0 {
		return FromEdges(0, nil)
	}
	if frac >= 1 {
		return g
	}
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	keep := make([]int32, n) // new id or -1
	for i := range keep {
		keep[i] = -1
	}
	next := int32(0)
	for v := 0; v < n; v++ {
		if rng.Float64() < frac {
			keep[v] = next
			next++
		}
	}
	b := NewBuilder(int(next))
	g.ForEachEdge(func(u, v int32) {
		if keep[u] >= 0 && keep[v] >= 0 {
			b.AddEdge(keep[u], keep[v])
		}
	})
	return b.Build()
}
