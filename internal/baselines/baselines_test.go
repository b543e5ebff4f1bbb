// Package baselines_test exercises all four baseline summarizers
// against the shared losslessness and compression expectations.
package baselines_test

import (
	"testing"
	"testing/quick"

	"math/rand"

	"repro/internal/baselines/mosso"
	"repro/internal/baselines/randomized"
	"repro/internal/baselines/sags"
	"repro/internal/baselines/sweg"
	"repro/internal/graph"
	"repro/internal/model"
)

type algo struct {
	name string
	run  func(g *graph.Graph, seed int64) *model.Summary
}

func algos() []algo {
	return []algo{
		{"Randomized", func(g *graph.Graph, seed int64) *model.Summary {
			return randomized.Summarize(g, seed)
		}},
		{"SWeG", func(g *graph.Graph, seed int64) *model.Summary {
			return sweg.Summarize(g, seed, sweg.Config{T: 10})
		}},
		{"SAGS", func(g *graph.Graph, seed int64) *model.Summary {
			return sags.Summarize(g, seed, sags.Config{})
		}},
		{"MoSSo", func(g *graph.Graph, seed int64) *model.Summary {
			return mosso.Summarize(g, seed, mosso.Config{})
		}},
	}
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"caveman":   graph.Caveman(4, 6, 3, 1),
		"bipartite": graph.BipartiteCores(3, 4, 5, 6, 2),
		"er":        graph.ErdosRenyi(60, 150, 3),
		"ba":        graph.BarabasiAlbert(60, 2, 4),
		"empty":     graph.FromEdges(4, nil),
		"single":    graph.FromEdges(2, [][2]int32{{0, 1}}),
	}
}

func TestAllBaselinesLossless(t *testing.T) {
	for _, a := range algos() {
		for name, g := range testGraphs() {
			s := a.run(g, 7)
			if !graph.Equal(s.Decode(), g) {
				t.Fatalf("%s on %s: not lossless", a.name, name)
			}
		}
	}
}

func TestBaselinesCompressCaveman(t *testing.T) {
	// Cliques are the canonical compressible structure; cost-aware
	// baselines must compress a caveman graph below |E|.
	g := graph.Caveman(6, 10, 2, 5)
	for _, a := range algos() {
		if a.name == "SAGS" {
			continue // SAGS merges probabilistically; no guarantee on tiny graphs
		}
		s := a.run(g, 11)
		if s.Cost() >= g.NumEdges() {
			t.Fatalf("%s: cost %d did not compress below |E|=%d", a.name, s.Cost(), g.NumEdges())
		}
	}
}

func TestRandomizedMergesTwins(t *testing.T) {
	// Two identical-neighborhood vertices must end up in one supernode.
	g := graph.BipartiteCores(1, 2, 6, 0, 3)
	s := randomized.Summarize(g, 5)
	if s.Parent[0] != s.Parent[1] || int(s.Parent[0]) < s.N {
		t.Fatalf("twins not merged: parent=%v", s.Parent)
	}
}

func TestSWeGDeterministic(t *testing.T) {
	g := graph.Caveman(4, 6, 2, 9)
	a := sweg.Summarize(g, 42, sweg.Config{T: 5})
	b := sweg.Summarize(g, 42, sweg.Config{T: 5})
	if a.Cost() != b.Cost() {
		t.Fatalf("SWeG not deterministic: %d vs %d", a.Cost(), b.Cost())
	}
}

func TestSAGSRespectsDefaults(t *testing.T) {
	g := graph.Caveman(4, 6, 2, 13)
	s := sags.Summarize(g, 3, sags.Config{})
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("SAGS not lossless with default config")
	}
}

// Property: all four baselines are lossless across random graphs.
func TestBaselinesLosslessProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	as := algos()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(15+rng.Intn(40), 30+rng.Intn(100), seed)
		a := as[rng.Intn(len(as))]
		s := a.run(g, seed)
		return graph.Equal(s.Decode(), g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
