package randomized

import (
	"testing"

	"repro/internal/flatgreedy"
	"repro/internal/graph"
)

func TestTwoHopGroups(t *testing.T) {
	// Path 0-1-2-3: from 0, 1 is one hop, 2 is two hops, 3 is three.
	g := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	gr := flatgreedy.New(g)
	got := twoHopGroups(gr, 0)
	seen := map[int32]bool{}
	for _, x := range got {
		seen[x] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("missing 1-hop or 2-hop group: %v", got)
	}
	if seen[3] || seen[0] {
		t.Fatalf("3-hop or self included: %v", got)
	}
}

func TestSummarizeCompressesClique(t *testing.T) {
	var edges [][2]int32
	for i := int32(0); i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			edges = append(edges, [2]int32{i, j})
		}
	}
	g := graph.FromEdges(8, edges)
	s := Summarize(g, 3)
	// One internal supernode over the 8 leaves: 9 supernodes, 8 h-edges.
	if s.NumSupernodes() != 9 || s.HCount() != 8 {
		t.Fatalf("clique should collapse to one supernode, got %d supernodes and %d h-edges", s.NumSupernodes(), s.HCount())
	}
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("not lossless")
	}
	// Cost: 1 self superedge + 8 membership edges.
	if s.Cost() != 9 {
		t.Fatalf("cost = %d, want 9", s.Cost())
	}
}

func TestSummarizeNavlakhaCostNeverGrows(t *testing.T) {
	// Randomized optimizes the Navlakha cost |P|+|C+|+|C-| (without the
	// Eq. (11) membership term), so that metric can never exceed |E| —
	// even on a path, where Eq. (11) itself may grow.
	var edges [][2]int32
	for i := int32(0); i < 19; i++ {
		edges = append(edges, [2]int32{i, i + 1})
	}
	g := graph.FromEdges(20, edges)
	s := Summarize(g, 3)
	navlakha := s.PCount() + s.NCount()
	if navlakha > g.NumEdges() {
		t.Fatalf("Navlakha cost %d exceeds |E| %d", navlakha, g.NumEdges())
	}
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("not lossless")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := graph.Caveman(3, 6, 2, 5)
	a := Summarize(g, 11)
	b := Summarize(g, 11)
	if a.Cost() != b.Cost() || a.NumSupernodes() != b.NumSupernodes() {
		t.Fatal("not deterministic")
	}
}
