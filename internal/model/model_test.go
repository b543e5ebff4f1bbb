package model

import (
	"testing"

	"repro/internal/graph"
)

// figure2Summary builds the final summary of Fig. 2 of the paper:
// input graph on vertices 0..6 with 14 edges; supernodes
// 7 = {2,3}, 8 = {0,1,2,3} (after pruning, {0,1} was removed);
// p-edges (8,8), (8,5), (4,7), (5,6); n-edge (5,7).
func figure2Input() *graph.Graph {
	return graph.FromEdges(7, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // clique on 0-3
		{0, 5}, {1, 5}, // 5 to {0,1}
		{2, 4}, {3, 4}, // 4 to {2,3}
		{5, 6},
		{0, 6}, {1, 6}, {2, 6}, // extra edges to 6? adjust below
	})
}

// fig2LikeSummary encodes a clique {0,1,2,3} with sub-structure:
// supernode 7={2,3}, 8={0,1,2,3}; p(8,8) covers the clique,
// p(8,5) says 5 connects to all of 0..3, n(5,7) removes (2,5),(3,5),
// p(4,7) gives (2,4),(3,4).
func fig2LikeGraph() *graph.Graph {
	return graph.FromEdges(7, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{0, 5}, {1, 5},
		{2, 4}, {3, 4},
		{5, 6},
	})
}

func fig2LikeSummary() *Summary {
	// Supernodes: 0..6 leaves, 7={2,3}, 8={0,1,7}.
	parent := []int32{8, 8, 7, 7, -1, -1, -1, 8, -1}
	edges := []Edge{
		{A: 8, B: 8, Sign: 1},
		{A: 8, B: 5, Sign: 1},
		{A: 5, B: 7, Sign: -1},
		{A: 4, B: 7, Sign: 1},
		{A: 5, B: 6, Sign: 1},
	}
	return New(7, parent, edges)
}

func TestFig2SummaryRepresentsGraph(t *testing.T) {
	g := fig2LikeGraph()
	s := fig2LikeSummary()
	if err := s.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("Decode mismatch")
	}
	// Cost: 5 p/n edges + 4 h-edges (0,1,7 under 8; 2,3 under 7) = 5 h-edges.
	if s.HCount() != 5 {
		t.Fatalf("HCount = %d, want 5", s.HCount())
	}
	if s.PCount() != 4 || s.NCount() != 1 {
		t.Fatalf("P=%d N=%d, want 4/1", s.PCount(), s.NCount())
	}
	if s.Cost() != 10 {
		t.Fatalf("Cost = %d, want 10 (as in Fig. 2)", s.Cost())
	}
}

// TestNeighborsOfFig2 pins the definition (oracle_test.go) and the
// compiled engine to neighbor lists worked out by hand.
func TestNeighborsOfFig2(t *testing.T) {
	s := fig2LikeSummary()
	cs, o := s.Compile(), newOracle(s)
	cases := []struct {
		v    int32
		want []int32
	}{
		{0, []int32{1, 2, 3, 5}},
		{2, []int32{0, 1, 3, 4}},
		{5, []int32{0, 1, 6}},
		{4, []int32{2, 3}},
		{6, []int32{5}},
	}
	for _, c := range cases {
		if got := o.neighbors(c.v); !int32sEqual(got, c.want) {
			t.Fatalf("oracle neighbors(%d) = %v, want %v", c.v, got, c.want)
		}
		if got := cs.NeighborsOf(c.v); !int32sEqual(got, c.want) {
			t.Fatalf("NeighborsOf(%d) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestHeightsAndDepths(t *testing.T) {
	s := fig2LikeSummary()
	if h := s.MaxHeight(); h != 2 {
		t.Fatalf("MaxHeight = %d, want 2", h)
	}
	// Depths: 0,1 -> 1; 2,3 -> 2; 4,5,6 -> 0. Avg = (1+1+2+2)/7.
	want := 6.0 / 7.0
	if d := s.AvgLeafDepth(); d < want-1e-9 || d > want+1e-9 {
		t.Fatalf("AvgLeafDepth = %f, want %f", d, want)
	}
}

func TestComposition(t *testing.T) {
	s := fig2LikeSummary()
	c := s.Composition()
	total := c.PShare + c.NShare + c.HShare
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %f", total)
	}
	if c.NShare <= 0 || c.PShare <= c.NShare {
		t.Fatalf("unexpected composition %+v", c)
	}
}

func TestTrivialSummaryIsInputGraph(t *testing.T) {
	// The initialization of Algorithm 1: every vertex a root, one p-edge
	// per subedge. Cost must equal |E|.
	g := graph.ErdosRenyi(40, 100, 2)
	parent := make([]int32, g.NumNodes())
	for i := range parent {
		parent[i] = -1
	}
	var edges []Edge
	g.ForEachEdge(func(u, v int32) { edges = append(edges, Edge{A: u, B: v, Sign: 1}) })
	s := New(g.NumNodes(), parent, edges)
	if s.Cost() != g.NumEdges() {
		t.Fatalf("Cost = %d, want %d", s.Cost(), g.NumEdges())
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoopCoversClique(t *testing.T) {
	// K5 as one supernode with a p-self-loop: cost 1 + 5 h-edges.
	var edges [][2]int32
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]int32{i, j})
		}
	}
	g := graph.FromEdges(5, edges)
	parent := []int32{5, 5, 5, 5, 5, -1}
	s := New(5, parent, []Edge{{A: 5, B: 5, Sign: 1}})
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	if s.Cost() != 6 {
		t.Fatalf("Cost = %d, want 6", s.Cost())
	}
}

func TestNestedEdgeSemantics(t *testing.T) {
	// Supernode 4 = {0,1}, 5 = {0,1,2}. p-edge (4,5) covers pairs
	// {a,b} with a in {0,1}, b in {0,1,2}: (0,1),(0,2),(1,2).
	parent := []int32{4, 4, 5, -1, 5, -1}
	s := New(4, parent, []Edge{{A: 4, B: 5, Sign: 1}})
	g := graph.FromEdges(4, [][2]int32{{0, 1}, {0, 2}, {1, 2}})
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsWrongModel(t *testing.T) {
	g := graph.FromEdges(3, [][2]int32{{0, 1}})
	parent := []int32{-1, -1, -1}
	s := New(3, parent, []Edge{{A: 0, B: 2, Sign: 1}})
	if err := s.Validate(g); err == nil {
		t.Fatal("expected validation error")
	}
	// Missing edge also detected.
	s2 := New(3, parent, nil)
	if err := s2.Validate(g); err == nil {
		t.Fatal("expected validation error for missing edge")
	}
	// Net count 2 violates the {0,1} restriction.
	s3 := New(3, parent, []Edge{{A: 0, B: 1, Sign: 1}, {A: 0, B: 1, Sign: 1}})
	if err := s3.Validate(g); err == nil {
		t.Fatal("expected {0,1} violation")
	}
}

func TestNewPanicsOnMalformedInput(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("short parent", func() { New(3, []int32{-1}, nil) })
	mustPanic("childless internal", func() { New(2, []int32{-1, -1, -1}, nil) })
	mustPanic("cycle", func() { New(2, []int32{2, 2, 3, 2}, nil) })
	mustPanic("own parent", func() { New(2, []int32{2, 2, 2}, nil) })
	// 3 and 4 parent each other, off every leaf's ancestor chain.
	mustPanic("cycle off the leaves' chains", func() { New(2, []int32{2, 2, -1, 4, 3}, nil) })
	mustPanic("three-cycle", func() { New(2, []int32{2, 3, 3, 4, 2}, nil) })
	mustPanic("bad sign", func() { New(2, []int32{-1, -1}, []Edge{{A: 0, B: 1, Sign: 0}}) })
	mustPanic("edge out of range", func() { New(2, []int32{-1, -1}, []Edge{{A: 0, B: 9, Sign: 1}}) })
}

// TestVertsOfSortedAndComplete: Compile's subnode lists are sorted and
// complete, also where a parent's children interleave in id order
// (4 = {1,3}, 5 = {0,2}, 6 = {4,5}).
func TestVertsOfSortedAndComplete(t *testing.T) {
	cs := New(4, []int32{5, 4, 5, 4, 6, 6, -1}, nil).Compile()
	for x, want := range [][]int32{{0}, {1}, {2}, {3}, {1, 3}, {0, 2}, {0, 1, 2, 3}} {
		if got := cs.vertsOf(int32(x)); !int32sEqual(got, want) {
			t.Fatalf("vertsOf(%d) = %v, want %v", x, got, want)
		}
	}
}
