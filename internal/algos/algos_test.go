package algos

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

func lineGraph(n int) *graph.Graph {
	var edges [][2]int32
	for i := int32(0); i < int32(n)-1; i++ {
		edges = append(edges, [2]int32{i, i + 1})
	}
	return graph.FromEdges(n, edges)
}

func TestBFSOrderOnLine(t *testing.T) {
	g := Raw(lineGraph(5))
	order := BFS(g, 0)
	want := []int32{0, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("BFS = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("BFS = %v, want %v", order, want)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := Raw(graph.FromEdges(4, [][2]int32{{0, 1}}))
	if got := BFS(g, 0); len(got) != 2 {
		t.Fatalf("BFS reached %v, want 2 vertices", got)
	}
	if got := BFS(g, 3); len(got) != 1 || got[0] != 3 {
		t.Fatalf("BFS from isolated = %v", got)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := Raw(graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {3, 4}}))
	comp, n := ConnectedComponents(g)
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[2] || comp[3] != comp[4] || comp[0] == comp[3] || comp[5] == comp[0] {
		t.Fatalf("comp = %v", comp)
	}
}

func TestPageRankUniformOnRegular(t *testing.T) {
	// On a cycle every vertex has the same rank.
	g := Raw(graph.FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}))
	pr := PageRank(g, 0.85, 30)
	var sum float64
	for _, r := range pr {
		sum += r
		if math.Abs(r-0.2) > 1e-9 {
			t.Fatalf("cycle PageRank not uniform: %v", pr)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PageRank sums to %f", sum)
	}
}

func TestPageRankStarCenterHighest(t *testing.T) {
	g := Raw(graph.FromEdges(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}}))
	pr := PageRank(g, 0.85, 30)
	for v := 1; v < 5; v++ {
		if pr[0] <= pr[v] {
			t.Fatalf("center rank %f not highest: %v", pr[0], pr)
		}
	}
}

func TestDijkstraUnitWeights(t *testing.T) {
	g := Raw(lineGraph(5))
	dist := Dijkstra(g, 0)
	for i, want := range []int64{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist = %v", dist)
		}
	}
	g2 := Raw(graph.FromEdges(3, [][2]int32{{0, 1}}))
	if d := Dijkstra(g2, 0); d[2] != -1 {
		t.Fatalf("unreachable distance = %d, want -1", d[2])
	}
}

func TestCountTrianglesMatchesGraphPackage(t *testing.T) {
	g := graph.ErdosRenyi(60, 250, 5)
	if got, want := CountTriangles(Raw(g)), graph.CountTriangles(g); got != want {
		t.Fatalf("triangles = %d, want %d", got, want)
	}
}

// The Sect. VIII-C claim: algorithms produce identical results on the
// raw graph and on the SLUGGER summary via partial decompression.
func TestAlgorithmsAgreeOnSummary(t *testing.T) {
	g := graph.Caveman(4, 6, 3, 21)
	sum, _ := core.Summarize(g, core.Config{T: 10, Seed: 3})
	onsum := OnCompiled(sum.Compile())
	defer onsum.Release()
	raw := Raw(g)

	if a, b := BFS(raw, 0), BFS(onsum, 0); len(a) != len(b) {
		t.Fatalf("BFS reach differs: %d vs %d", len(a), len(b))
	}
	da, db := Dijkstra(raw, 0), Dijkstra(onsum, 0)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("Dijkstra dist differs at %d: %d vs %d", i, da[i], db[i])
		}
	}
	pa, pb := PageRank(raw, 0.85, 20), PageRank(onsum, 0.85, 20)
	for i := range pa {
		if math.Abs(pa[i]-pb[i]) > 1e-9 {
			t.Fatalf("PageRank differs at %d: %f vs %f", i, pa[i], pb[i])
		}
	}
	if ta, tb := CountTriangles(raw), CountTriangles(onsum); ta != tb {
		t.Fatalf("triangles differ: %d vs %d", ta, tb)
	}
	ca, na := ConnectedComponents(raw)
	cb, nb := ConnectedComponents(onsum)
	if na != nb {
		t.Fatalf("component counts differ: %d vs %d", na, nb)
	}
	_ = ca
	_ = cb
}

// isBFSDistance reports whether dist is the unit-weight distance from
// src in g, given reach (the vertices BFS reaches from src): dist[src]
// is 0, -1 marks exactly the vertices off the reach, the two ends of
// every edge are at most one level apart, and every other reached
// vertex has a neighbor one level closer.
func isBFSDistance(g *graph.Graph, src int32, reach []int32, dist []int64) bool {
	if len(dist) != g.NumNodes() || dist[src] != 0 {
		return false
	}
	reached := make([]bool, g.NumNodes())
	for _, v := range reach {
		reached[v] = true
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if (dist[v] >= 0) != reached[v] {
			return false
		}
		closer := v == src
		for _, w := range g.Neighbors(v) {
			if d := dist[v] - dist[w]; d > 1 || d < -1 {
				return false
			}
			closer = closer || dist[w] == dist[v]-1
		}
		if reached[v] && !closer {
			return false
		}
	}
	return true
}

// Property: BFS reach equals component size on random graphs, both raw
// and on summaries, and Dijkstra's distances are BFS levels.
func TestBFSReachEqualsComponentProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(10+rng.Intn(30), 20+rng.Intn(60), seed)
		src := int32(rng.Intn(g.NumNodes()))
		comp, _ := ConnectedComponents(Raw(g))
		size := 0
		for _, c := range comp {
			if c == comp[src] {
				size++
			}
		}
		reach := BFS(Raw(g), src)
		if len(reach) != size || !isBFSDistance(g, src, reach, Dijkstra(Raw(g), src)) {
			return false
		}
		sum, _ := core.Summarize(g, core.Config{T: 4, Seed: seed})
		onsum := OnCompiled(sum.Compile())
		defer onsum.Release()
		return len(BFS(onsum, src)) == size && isBFSDistance(g, src, reach, Dijkstra(onsum, src))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// parentPageRank is PageRank as it stood before the power iteration was
// rewritten around "apply the adjacency matrix" (a verbatim copy): the
// reference a neighbor-enumerating source must still match bit for bit.
func parentPageRank(g NeighborSource, d float64, T int) []float64 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for t := 0; t < T; t++ {
		for i := range next {
			next[i] = 0
		}
		for v := 0; v < n; v++ {
			nbrs := g.Neighbors(int32(v))
			if len(nbrs) == 0 {
				continue
			}
			share := rank[v] / float64(len(nbrs))
			for _, w := range nbrs {
				next[w] += share
			}
		}
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

// TestPageRankNeighborSourcesKeepTheirBits: sources without a MulAdj —
// the raw graph, and a gathered adjacency behind FromFuncs as the
// federation coordinator builds — get the same additions in the same
// order as before, isolated vertices included.
func TestPageRankNeighborSourcesKeepTheirBits(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"caveman":  graph.Caveman(5, 6, 4, 3),
		"skewed":   graph.BarabasiAlbert(200, 3, 11),
		"isolated": graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {4, 5}}),
	}
	for name, g := range graphs {
		adj := make([][]int32, g.NumNodes())
		for v := range adj {
			adj[v] = append([]int32(nil), g.Neighbors(int32(v))...)
		}
		gathered := FromFuncs(len(adj), func(v int32) []int32 { return adj[v] })
		for _, src := range []NeighborSource{Raw(g), gathered} {
			got, want := PageRank(src, 0.85, 20), parentPageRank(src, 0.85, 20)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s: rank[%d] = %v, the parent's loop gives %v", name, v, got[v], want[v])
				}
			}
		}
	}
}

// countingSource counts the products PageRank asks its source for.
type countingSource struct {
	*Source
	products int
}

func (c *countingSource) MulAdj(dst, x []float64) bool {
	c.products++
	return c.Source.MulAdj(dst, x)
}

// TestOverlaySourceOffersDegrees: the source over an overlay snapshot,
// live or the empty one OnCompiled makes, keeps the degree vector, so
// PageRank runs T products on every view and not T + 1.
func TestOverlaySourceOffersDegrees(t *testing.T) {
	g := graph.Caveman(4, 6, 3, 21)
	sum, _ := core.Summarize(g, core.Config{T: 10, Seed: 3})
	live, _, err := model.NewOverlay(sum.Compile()).Apply([]model.EdgeUpdate{{U: 0, V: 20}, {U: 1, V: 2, Delete: true}})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]*Source{"live": OnView(live), "compiled": OnCompiled(live.Base())} {
		var ns NeighborSource = src
		ds, ok := ns.(interface{ Degrees([]float64) bool })
		if !ok {
			t.Fatalf("%s: the overlay source offers no Degrees", name)
		}
		deg := make([]float64, src.NumNodes())
		if !ds.Degrees(deg) {
			t.Fatalf("%s: Degrees reported ineligible", name)
		}
		for v, d := range deg {
			if want := len(src.Neighbors(int32(v))); d != float64(want) {
				t.Fatalf("%s: Degrees[%d] = %v, %d neighbors", name, v, d, want)
			}
		}
		c := &countingSource{Source: src}
		PageRank(c, 0.85, 10)
		if c.products != 10 {
			t.Fatalf("%s: PageRank(T = 10) ran %d products", name, c.products)
		}
		src.Release()
	}
}
