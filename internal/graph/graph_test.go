package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop, dropped
	b.AddEdge(2, 3)
	g := b.Build()
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 3) {
		t.Fatal("expected edges missing")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Fatal("unexpected edge present")
	}

	// Build fills each CSR window in one pass over the sorted edges, with
	// no sort of its own: every insertion order must still leave each
	// window strictly ascending and exactly the vertex's distinct
	// neighbors. Each case adds its edges in two batches and checks the
	// graph after each Build.
	var fwd, rev [][2]int32
	for u := int32(0); u < 12; u++ {
		for v := u + 1; v < 12; v += 1 + u%3 {
			fwd = append(fwd, [2]int32{u, v})
		}
	}
	for i := len(fwd) - 1; i >= 0; i-- {
		rev = append(rev, fwd[i])
	}
	var both, dups, loops [][2]int32
	for _, e := range fwd {
		both = append(both, e, [2]int32{e[1], e[0]})
		dups = append(dups, [2]int32{e[1], e[0]}, e, e)
		loops = append(loops, [2]int32{e[0], e[0]}, e, [2]int32{e[1], e[1]})
	}
	cases := []struct {
		name          string
		n             int
		first, second [][2]int32
	}{
		{"ascending", 12, fwd[:30], fwd[30:]},
		{"reverse", 12, rev[:30], rev[30:]},
		{"both orientations", 12, both[:25], both[25:]},
		{"duplicates", 12, dups[:40], dups},
		{"self-loops", 12, loops[:50], loops[50:]},
		{"ids grow the vertex count", 0, rev[:20], append([][2]int32{{40, 3}, {17, 40}}, rev[20:]...)},
	}
	for _, c := range cases {
		b := NewBuilder(c.n)
		want := map[[2]int32]bool{}
		n := c.n
		for round, edges := range [][][2]int32{c.first, c.second} {
			for _, e := range edges {
				b.AddEdge(e[0], e[1])
				if e[0] != e[1] {
					want[[2]int32{min(e[0], e[1]), max(e[0], e[1])}] = true
					n = max(n, int(max(e[0], e[1]))+1)
				}
			}
			g := b.Build()
			if g.NumNodes() != n || g.NumEdges() != int64(len(want)) {
				t.Fatalf("%s, build %d: %v, want n=%d m=%d", c.name, round+1, g, n, len(want))
			}
			slots := 0
			for v := int32(0); v < int32(n); v++ {
				nbrs := g.Neighbors(v)
				slots += len(nbrs)
				for i, w := range nbrs {
					if i > 0 && nbrs[i-1] >= w {
						t.Fatalf("%s, build %d: Neighbors(%d) = %v, not strictly ascending", c.name, round+1, v, nbrs)
					}
					if !want[[2]int32{min(v, w), max(v, w)}] {
						t.Fatalf("%s, build %d: Neighbors(%d) holds %d, which no edge names", c.name, round+1, v, w)
					}
				}
			}
			if slots != 2*len(want) {
				t.Fatalf("%s, build %d: %d adjacency slots for %d edges", c.name, round+1, slots, len(want))
			}
		}
	}
}

func TestBuilderGrowsVertexCount(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", g.NumNodes())
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := FromEdges(5, [][2]int32{{3, 1}, {3, 0}, {3, 4}, {3, 2}})
	nbrs := g.Neighbors(3)
	want := []int32{0, 1, 2, 4}
	if len(nbrs) != len(want) {
		t.Fatalf("len = %d, want %d", len(nbrs), len(want))
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("Neighbors(3) = %v, want %v", nbrs, want)
		}
	}
}

func TestForEachEdgeVisitsOncePerEdge(t *testing.T) {
	g := FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	count := 0
	g.ForEachEdge(func(u, v int32) {
		count++
		if u >= v {
			t.Fatalf("ForEachEdge order violated: (%d,%d)", u, v)
		}
	})
	if count != 4 {
		t.Fatalf("visited %d edges, want 4", count)
	}
}

func TestEqual(t *testing.T) {
	a := FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	b := FromEdges(3, [][2]int32{{1, 2}, {0, 1}})
	c := FromEdges(3, [][2]int32{{0, 1}, {0, 2}})
	if !Equal(a, b) {
		t.Fatal("a and b should be equal")
	}
	if Equal(a, c) {
		t.Fatal("a and c should differ")
	}
}

func TestReadWriteEdgeListRoundTrip(t *testing.T) {
	g := ErdosRenyi(50, 120, 1)
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	// Vertex count may shrink if trailing isolated vertices exist; pad.
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges: got %d want %d", g2.NumEdges(), g.NumEdges())
	}
	g.ForEachEdge(func(u, v int32) {
		if !g2.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) lost in round trip", u, v)
		}
	})
}

func TestReadEdgeListCommentsAndErrors(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# comment\n% comment\n0 1\n\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Fatal("expected error for short line")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("expected error for non-numeric line")
	}
	if _, err := ReadEdgeList(strings.NewReader("-1 2\n")); err == nil {
		t.Fatal("expected error for negative id")
	}
	// One edge naming id 700000100 would size the graph's arrays at
	// ~17 GB; it is refused by line, before anything is allocated.
	if _, err := ReadEdgeList(strings.NewReader("0 1\n000 700000100\n")); err == nil || !strings.Contains(err.Error(), "line 2: vertex id 700000100") {
		t.Fatalf("out-of-proportion id: %v", err)
	}
	// A self-loop sizes nothing, and an id below 2^20 is always allowed.
	for _, in := range []string{"900000000 900000000\n0 1\n", "999999 3\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err != nil {
			t.Fatalf("%q: %v", in, err)
		}
	}
}

func TestErdosRenyiProperties(t *testing.T) {
	g := ErdosRenyi(100, 300, 42)
	if g.NumNodes() > 100 {
		t.Fatalf("nodes = %d, want <= 100", g.NumNodes())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges generated")
	}
	// Deterministic for a fixed seed.
	g2 := ErdosRenyi(100, 300, 42)
	if !Equal(g, g2) {
		t.Fatal("generator not deterministic")
	}
}

func TestBarabasiAlbertDegrees(t *testing.T) {
	g := BarabasiAlbert(200, 3, 7)
	if g.NumNodes() != 200 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Every non-seed node attaches to k=3 nodes, so m >= 3*(n-4).
	if g.NumEdges() < int64(3*(200-4)-10) {
		t.Fatalf("edges = %d, too few", g.NumEdges())
	}
	if g.MaxDegree() < 10 {
		t.Fatalf("expected a hub, max degree = %d", g.MaxDegree())
	}
}

func TestRMATDeterministicAndSized(t *testing.T) {
	g := RMAT(10, 8, 0.57, 0.19, 0.19, 3)
	if g.NumNodes() > 1024 {
		t.Fatalf("nodes = %d, want <= 1024", g.NumNodes())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges")
	}
	if !Equal(g, RMAT(10, 8, 0.57, 0.19, 0.19, 3)) {
		t.Fatal("RMAT not deterministic")
	}
}

func TestHierCommunityStructure(t *testing.T) {
	p := DefaultHierParams()
	g := HierCommunity(p, 11)
	wantN := p.LeafSize
	for i := 0; i < p.Levels; i++ {
		wantN *= p.Branching
	}
	if g.NumNodes() != wantN {
		t.Fatalf("nodes = %d, want %d", g.NumNodes(), wantN)
	}
	// Leaf communities should be much denser than cross-community.
	// Count edges inside first leaf community vs a random cross block.
	inside := 0
	for i := 0; i < p.LeafSize; i++ {
		for j := i + 1; j < p.LeafSize; j++ {
			if g.HasEdge(int32(i), int32(j)) {
				inside++
			}
		}
	}
	total := p.LeafSize * (p.LeafSize - 1) / 2
	if float64(inside)/float64(total) < 0.5 {
		t.Fatalf("leaf community density %.2f too low", float64(inside)/float64(total))
	}
}

func TestHierCommunityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad params")
		}
	}()
	HierCommunity(HierParams{Levels: 2, Branching: 2, LeafSize: 4, Density: []float64{0.1}}, 1)
}

func TestCavemanCliques(t *testing.T) {
	g := Caveman(4, 5, 2, 9)
	if g.NumNodes() != 20 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Each clique contributes C(5,2)=10 edges.
	if g.NumEdges() < 40 {
		t.Fatalf("edges = %d, want >= 40", g.NumEdges())
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if !g.HasEdge(int32(i), int32(j)) {
				t.Fatalf("clique edge (%d,%d) missing", i, j)
			}
		}
	}
}

func TestBipartiteCoresComplete(t *testing.T) {
	g := BipartiteCores(2, 3, 4, 0, 5)
	if g.NumNodes() != 14 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if !g.HasEdge(int32(i), int32(3+j)) {
				t.Fatalf("core edge missing")
			}
		}
	}
	if g.HasEdge(0, 1) {
		t.Fatal("unexpected left-left edge")
	}
}

func TestTheorem1GraphDegrees(t *testing.T) {
	n, k := 6, 2
	g := Theorem1Graph(n, k)
	group := 2*k + 1
	if g.NumNodes() != n*group {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Every node is non-adjacent to exactly 2k others.
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(int32(v)) != g.NumNodes()-1-2*k {
			t.Fatalf("degree(%d) = %d, want %d", v, g.Degree(int32(v)), g.NumNodes()-1-2*k)
		}
	}
}

func TestNodeSample(t *testing.T) {
	g := ErdosRenyi(200, 600, 13)
	s := NodeSample(g, 0.5, 99)
	if s.NumNodes() >= g.NumNodes() {
		t.Fatalf("sample did not shrink: %d", s.NumNodes())
	}
	if s.NumEdges() >= g.NumEdges() {
		t.Fatalf("sample edges did not shrink: %d", s.NumEdges())
	}
	if full := NodeSample(g, 1.0, 99); !Equal(full, g) {
		t.Fatal("frac=1 should return the same graph")
	}
	if empty := NodeSample(g, 0, 99); empty.NumNodes() != 0 {
		t.Fatal("frac=0 should return empty graph")
	}
}

func TestCountTriangles(t *testing.T) {
	// K4 has 4 triangles.
	k4 := FromEdges(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if got := CountTriangles(k4); got != 4 {
		t.Fatalf("triangles(K4) = %d, want 4", got)
	}
	// A path has none.
	path := FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	if got := CountTriangles(path); got != 0 {
		t.Fatalf("triangles(path) = %d, want 0", got)
	}
	ring := FromEdges(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	if got := CountTriangles(ring); got != 1 {
		t.Fatalf("triangles(C3) = %d, want 1", got)
	}
}

// Property: HasEdge agrees with an adjacency-matrix oracle on random graphs.
func TestHasEdgeMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		m := rng.Intn(3 * n)
		oracle := make(map[[2]int32]bool)
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			b.AddEdge(u, v)
			if u != v {
				if u > v {
					u, v = v, u
				}
				oracle[[2]int32{u, v}] = true
			}
		}
		g := b.Build()
		for u := int32(0); u < int32(n); u++ {
			for v := int32(0); v < int32(n); v++ {
				uu, vv := u, v
				if uu > vv {
					uu, vv = vv, uu
				}
				if g.HasEdge(u, v) != oracle[[2]int32{uu, vv}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
