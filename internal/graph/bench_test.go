package graph

import (
	"math/rand"
	"testing"
)

// servedShape and buildShape are the benchmark's two hierarchical
// graphs: G_hier4 (n = 7 500, served) and build_hier's draws (n = 1 500).
var (
	servedShape = HierParams{Levels: 4, Branching: 5, LeafSize: 12, Density: []float64{0.00002, 0.0008, 0.01, 0.2, 0.9}}
	buildShape  = HierParams{Levels: 3, Branching: 5, LeafSize: 12, Density: []float64{0.0008, 0.01, 0.2, 0.9}}
)

// BenchmarkGenerate times the generators the benchmark's workloads
// start from, Builder.Build included.
func BenchmarkGenerate(b *testing.B) {
	cases := []struct {
		name string
		gen  func() *Graph
	}{
		{"hier4", func() *Graph { return HierCommunity(servedShape, 1) }},
		{"hier3", func() *Graph { return HierCommunity(buildShape, 64) }},
		{"ba5000x3", func() *Graph { return BarabasiAlbert(5000, 3, 64) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				c.gen()
			}
		})
	}
}

// BenchmarkBuild times AddEdge and Build over G_hier4's edges, in
// ascending order and shuffled.
func BenchmarkBuild(b *testing.B) {
	g := HierCommunity(servedShape, 1)
	sorted := g.Edges()
	shuffled := append([][2]int32(nil), sorted...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, c := range []struct {
		name  string
		edges [][2]int32
	}{{"sorted", sorted}, {"shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				FromEdges(g.NumNodes(), c.edges)
			}
		})
	}
}
