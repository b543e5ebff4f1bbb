package flat

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/model"
)

// checkEncoding asserts the encoding's edge list, its P+/P-/H counts and
// that it represents g exactly under the strict {0,1} net-count check.
func checkEncoding(t *testing.T, s *model.Summary, g *graph.Graph, edges []model.Edge, p, n, h int64) {
	t.Helper()
	if !slices.Equal(s.Edges, edges) {
		t.Fatalf("edges = %v, want %v", s.Edges, edges)
	}
	if s.PCount() != p || s.NCount() != n || s.HCount() != h {
		t.Fatalf("|P+|, |P-|, |H| = %d, %d, %d, want %d, %d, %d",
			s.PCount(), s.NCount(), s.HCount(), p, n, h)
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestSingletonEncodingCostEqualsEdges(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, 3)
	assign := make([]int32, g.NumNodes())
	for i := range assign {
		assign[i] = int32(i)
	}
	s := Encode(g, assign)
	// Every pair has |T|=1 so superedge (cost 1) ties with listing; either
	// way total cost is |E| and there are no corrections beyond that.
	if s.Cost() != g.NumEdges() || s.HCount() != 0 {
		t.Fatalf("singleton cost = %d with %d h-edges, want %d with none", s.Cost(), s.HCount(), g.NumEdges())
	}
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("singleton encoding not lossless")
	}
}

func TestCliqueCollapsesToSelfLoop(t *testing.T) {
	// K6 grouped as one supernode (id 6): cost = 1 self-loop p-edge + 6
	// membership h-edges.
	var edges [][2]int32
	for i := int32(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, [2]int32{i, j})
		}
	}
	g := graph.FromEdges(6, edges)
	assign := make([]int32, 6) // all zero
	s := Encode(g, assign)
	checkEncoding(t, s, g, []model.Edge{{A: 6, B: 6, Sign: 1}}, 1, 0, 6)
	if s.Cost() != 1+6 {
		t.Fatalf("cost = %d, want 7", s.Cost())
	}
}

func TestBicliqueWithHole(t *testing.T) {
	// Complete bipartite 3x3 minus one edge, grouped into two supernodes
	// (ids 6 and 7): superedge + one negative correction wins over
	// listing 8 edges.
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
	checkEncoding(t, s, g, []model.Edge{{A: 6, B: 7, Sign: 1}, {A: 0, B: 3, Sign: -1}}, 1, 1, 6)
	// Cost: 1 superedge + 1 correction + 6 membership edges.
	if s.Cost() != 8 {
		t.Fatalf("cost = %d, want 8", s.Cost())
	}
}

func TestSparsePairListsEdges(t *testing.T) {
	// Two groups of 4 with a single cross edge: listing (cost 1) beats
	// superedge (cost 1 + 15), so the edge is a p-edge between leaves.
	g := graph.FromEdges(8, [][2]int32{{0, 4}})
	assign := []int32{0, 0, 0, 0, 1, 1, 1, 1}
	s := Encode(g, assign)
	checkEncoding(t, s, g, []model.Edge{{A: 0, B: 4, Sign: 1}}, 1, 0, 8)
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
	// One pair grouped (supernode 4), one pair singleton-split.
	assign := []int32{0, 0, 1, 2}
	s := Encode(g, assign)
	// Group 0 has 2 members -> 2 membership edges; cost of within-group-0
	// encoding = 1 (superedge self-loop or listing, both cost 1);
	// edge (2,3) costs 1. Total = 4.
	checkEncoding(t, s, g, []model.Edge{{A: 4, B: 4, Sign: 1}, {A: 2, B: 3, Sign: 1}}, 2, 0, 2)
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

// Property: the encoding's cost is Eq. (11) for its partition, computed
// here independently from all vertex pairs — the sum over supernode
// pairs of min(|E_AB|, 1 + |T_AB| - |E_AB|) plus one membership h-edge
// per vertex of every supernode of two or more — and the encoding
// passes the model's strict validator.
func TestEncodeCostSanityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g := graph.ErdosRenyi(n, rng.Intn(4*n), seed)
		n = g.NumNodes()
		k := 1 + rng.Intn(n)
		assign := make([]int32, n)
		for i := range assign {
			assign[i] = int32(rng.Intn(k))
		}
		assign = Compact(assign)
		s := Encode(g, assign)
		if err := s.Validate(g); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}

		size := map[int32]int64{}
		for _, a := range assign {
			size[a]++
		}
		type pair struct{ a, b int32 }
		e := map[pair]int64{}
		for u := int32(0); u < int32(n); u++ {
			for v := u + 1; v < int32(n); v++ {
				if g.HasEdge(u, v) {
					a, b := min(assign[u], assign[v]), max(assign[u], assign[v])
					e[pair{a, b}]++
				}
			}
		}
		var want int64
		for p, eab := range e {
			tab := size[p.a] * size[p.b]
			if p.a == p.b {
				tab = size[p.a] * (size[p.a] - 1) / 2
			}
			want += min(eab, 1+tab-eab)
		}
		for _, sz := range size {
			if sz >= 2 {
				want += sz
			}
		}
		if s.Cost() != want {
			t.Logf("seed %d: cost %d, Eq. (11) %d", seed, s.Cost(), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
