package model

import "testing"

func TestHasEdgeMatchesGraph(t *testing.T) {
	g := fig2LikeGraph()
	s := fig2LikeSummary()
	cs, o := s.Compile(), newOracle(s)
	n := int32(g.NumNodes())
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			if got, want := cs.HasEdge(u, v), g.HasEdge(u, v); got != want {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
			if got, want := u != v && o.hasEdge(u, v), g.HasEdge(u, v); got != want {
				t.Fatalf("oracle hasEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestHasEdgeSelfLoopFalse(t *testing.T) {
	if fig2LikeSummary().Compile().HasEdge(3, 3) {
		t.Fatal("self pair must never be an edge")
	}
}

func TestHasEdgeNestedEndpoints(t *testing.T) {
	// Supernode 4 = {0,1}, 5 = {0,1,2}; p-edge (4,5) covers (0,1),(0,2),(1,2).
	s := New(4, []int32{4, 4, 5, -1, 5, -1}, []Edge{{A: 4, B: 5, Sign: 1}})
	cs, o := s.Compile(), newOracle(s)
	for _, pair := range [][2]int32{{0, 1}, {0, 2}, {1, 2}} {
		if !cs.HasEdge(pair[0], pair[1]) || !o.hasEdge(pair[0], pair[1]) {
			t.Fatalf("HasEdge(%d,%d) = false, want true", pair[0], pair[1])
		}
	}
	if cs.HasEdge(0, 3) || cs.HasEdge(2, 3) || o.hasEdge(0, 3) || o.hasEdge(2, 3) {
		t.Fatal("vertex 3 must be isolated")
	}
}

func TestHasEdgeAgreesWithNeighborsOf(t *testing.T) {
	s := fig2LikeSummary()
	cs, o := s.Compile(), newOracle(s)
	for v := int32(0); v < int32(s.N); v++ {
		inNbrs := make(map[int32]bool)
		for _, u := range o.neighbors(v) {
			inNbrs[u] = true
		}
		for u := int32(0); u < int32(s.N); u++ {
			if u == v {
				continue
			}
			if cs.HasEdge(v, u) != inNbrs[u] {
				t.Fatalf("HasEdge(%d,%d)=%v disagrees with NeighborsOf", v, u, cs.HasEdge(v, u))
			}
		}
	}
}
