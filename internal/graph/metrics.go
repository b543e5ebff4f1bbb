package graph

import "sort"

// GlobalClusteringCoefficient returns 3*triangles / #wedges (0 when the
// graph has no wedges) — the transitivity of the graph.
func GlobalClusteringCoefficient(g *Graph) float64 {
	var wedges int64
	for v := 0; v < g.NumNodes(); v++ {
		d := int64(g.Degree(int32(v)))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(CountTriangles(g)) / float64(wedges)
}

// AvgLocalClustering returns the mean of per-vertex clustering
// coefficients over vertices of degree >= 2.
func AvgLocalClustering(g *Graph) float64 {
	n := g.NumNodes()
	mark := make([]bool, n)
	var sum float64
	count := 0
	for v := int32(0); v < int32(n); v++ {
		nbrs := g.Neighbors(v)
		d := len(nbrs)
		if d < 2 {
			continue
		}
		for _, w := range nbrs {
			mark[w] = true
		}
		links := 0
		for _, w := range nbrs {
			for _, x := range g.Neighbors(w) {
				if x > w && mark[x] {
					links++
				}
			}
		}
		for _, w := range nbrs {
			mark[w] = false
		}
		sum += 2 * float64(links) / float64(d*(d-1))
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// EffectiveDiameter estimates the 90th-percentile of pairwise BFS
// distances by sampling sources (exact when samples >= number of
// non-isolated vertices). Returns 0 for graphs without edges.
func EffectiveDiameter(g *Graph, samples int, seed int64) int {
	n := g.NumNodes()
	if n == 0 || g.NumEdges() == 0 {
		return 0
	}
	if samples <= 0 || samples > n {
		samples = n
	}
	// Deterministic source selection via a seeded stride.
	stride := int(uint64(seed)%uint64(n))*2 + 1
	var dists []int
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for s := 0; s < samples; s++ {
		src := int32((s * stride) % n)
		if g.Degree(src) == 0 {
			continue
		}
		for i := range dist {
			dist[i] = -1
		}
		queue = append(queue[:0], src)
		dist[src] = 0
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
		for v := 0; v < n; v++ {
			if dist[v] > 0 {
				dists = append(dists, int(dist[v]))
			}
		}
	}
	if len(dists) == 0 {
		return 0
	}
	sort.Ints(dists)
	return dists[(len(dists)*9)/10]
}
