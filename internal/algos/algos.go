// Package algos implements the unweighted graph algorithms of
// Sect. VIII-C of the SLUGGER paper — BFS, PageRank, Dijkstra
// (unit weights) and triangle counting — over a NeighborSource
// abstraction, so that each algorithm runs identically on a raw
// graph.Graph and on a hierarchical model.Summary via on-the-fly
// partial decompression (Algorithm 4). PageRank, which needs products
// with the adjacency matrix rather than neighbor lists, takes them from
// the hierarchy directly where the source offers that (model's MulAdj).
package algos

// NeighborSource is the only access graph algorithms need: the vertex
// count and per-vertex neighbor retrieval. *graph.Graph satisfies it
// via an adapter (Raw); a summary's overlay snapshot via OnView.
type NeighborSource interface {
	NumNodes() int
	// Neighbors returns the neighbors of v. The result may alias
	// internal storage and is only valid until the next call.
	Neighbors(v int32) []int32
}

// rawGraph adapts anything with the graph.Graph method set.
type rawGraph struct {
	n   int
	nbr func(v int32) []int32
}

func (r rawGraph) NumNodes() int             { return r.n }
func (r rawGraph) Neighbors(v int32) []int32 { return r.nbr(v) }

// FromFuncs builds a NeighborSource from a vertex count and a
// neighbor function.
func FromFuncs(n int, nbr func(v int32) []int32) NeighborSource {
	return rawGraph{n: n, nbr: nbr}
}

// BFS returns the vertices reachable from src in breadth-first order.
func BFS(g NeighborSource, src int32) []int32 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	visited := make([]bool, n)
	order := make([]int32, 0, n)
	queue := []int32{src}
	visited[src] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.Neighbors(v) {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}

// ConnectedComponents returns a component id per vertex and the number
// of components.
func ConnectedComponents(g NeighborSource) ([]int32, int) {
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	next := int32(0)
	for v := 0; v < n; v++ {
		if comp[v] >= 0 {
			continue
		}
		queue := []int32{int32(v)}
		comp[v] = next
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(x) {
				if comp[w] < 0 {
					comp[w] = next
					queue = append(queue, w)
				}
			}
		}
		next++
	}
	return comp, int(next)
}

// adjMultiplier is a source that can apply its adjacency matrix to a
// vector without enumerating neighbors (model's MulAdj). A false return
// means it cannot for the data it holds, and dst is untouched.
type adjMultiplier interface {
	MulAdj(dst, x []float64) bool
}

// mulAdj computes dst = A·x for g's (symmetric) adjacency matrix A:
// through the source's own MulAdj when it has one that applies, and
// otherwise by scattering x[v] to v's neighbors for v = 0, 1, ... — so
// dst[w] collects its neighbors' entries in ascending order.
func mulAdj(g NeighborSource, dst, x []float64) {
	if m, ok := g.(adjMultiplier); ok && m.MulAdj(dst, x) {
		return
	}
	clear(dst)
	for v, xv := range x {
		for _, w := range g.Neighbors(int32(v)) {
			dst[w] += xv
		}
	}
}

// PageRank runs T power iterations with damping factor d on the
// undirected graph (Algorithm 6 of the paper). Dangling mass is
// redistributed uniformly; the result sums to 1 for non-empty graphs.
// Each iteration is one product with the adjacency matrix, which a
// summary's source computes on the hierarchy itself (model's MulAdj)
// rather than by querying every vertex; the degrees are one more,
// unless the source keeps them (model's Degrees), as a summary's does.
func PageRank(g NeighborSource, d float64, T int) []float64 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	share := make([]float64, n) // rank[v] / deg[v], what v sends each neighbor
	deg := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
		share[i] = 1
	}
	if ds, ok := g.(interface{ Degrees([]float64) bool }); !ok || !ds.Degrees(deg) {
		mulAdj(g, deg, share)
	}
	for t := 0; t < T; t++ {
		for v := range share {
			share[v] = 0
			if deg[v] > 0 {
				share[v] = rank[v] / deg[v]
			}
		}
		mulAdj(g, next, share)
		var sum float64
		for i := range next {
			next[i] *= d
			sum += next[i]
		}
		leak := (1 - sum) / float64(n)
		for i := range next {
			next[i] += leak
		}
		rank, next = next, rank
	}
	return rank
}

// Dijkstra returns shortest-path distances from src with unit edge
// weights (-1 for unreachable vertices), the paper's Dijkstra's on
// unweighted summaries. With every weight 1 a FIFO queue already pops
// vertices in distance order, so the distances are BFS levels and no
// priority queue is needed.
func Dijkstra(g NeighborSource, src int32) []int64 {
	n := g.NumNodes()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	if n == 0 {
		return dist
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// CountTriangles counts triangles by neighbor-set intersection over the
// NeighborSource (each triangle counted once).
func CountTriangles(g NeighborSource) int64 {
	n := g.NumNodes()
	mark := make([]bool, n)
	var count int64
	for v := int32(0); v < int32(n); v++ {
		nbrs := append([]int32(nil), g.Neighbors(v)...)
		for _, w := range nbrs {
			if w > v {
				mark[w] = true
			}
		}
		for _, w := range nbrs {
			if w <= v {
				continue
			}
			for _, x := range g.Neighbors(w) {
				if x > w && x < int32(n) && mark[x] {
					count++
				}
			}
		}
		for _, w := range nbrs {
			if w > v {
				mark[w] = false
			}
		}
	}
	return count
}
