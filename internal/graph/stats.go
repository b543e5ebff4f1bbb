package graph

import "sort"

// CountTriangles returns the exact number of triangles using the
// forward (degree-ordered) algorithm.
func CountTriangles(g *Graph) int64 {
	n := g.NumNodes()
	// rank orders vertices by (degree, id) ascending.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	rank := make([]int32, n)
	for i, v := range order {
		rank[v] = int32(i)
	}
	// forward adjacency: neighbors with higher rank.
	fwd := make([][]int32, n)
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(int32(v)) {
			if rank[w] > rank[int32(v)] {
				fwd[v] = append(fwd[v], w)
			}
		}
	}
	mark := make([]bool, n)
	var count int64
	for v := 0; v < n; v++ {
		for _, w := range fwd[v] {
			mark[w] = true
		}
		for _, w := range fwd[v] {
			for _, x := range fwd[w] {
				if mark[x] {
					count++
				}
			}
		}
		for _, w := range fwd[v] {
			mark[w] = false
		}
	}
	return count
}
