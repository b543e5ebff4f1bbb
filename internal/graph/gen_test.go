package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// The Barabási–Albert generator exists to give shard-balance and
// parity tests realistic degree skew: preferential attachment yields a
// heavy-tailed (power-law-like) degree distribution, unlike the
// near-uniform degrees of Erdős–Rényi graphs.

func TestBarabasiAlbertShape(t *testing.T) {
	const n, k = 2000, 3
	g := BarabasiAlbert(n, k, 1)
	if g.NumNodes() != n {
		t.Fatalf("nodes = %d, want %d", g.NumNodes(), n)
	}
	// Every arriving node contributes up to k edges (fewer only through
	// dedup against earlier picks), plus the seed clique.
	m := g.NumEdges()
	if m < int64(n*k)*9/10 || m > int64(n*k)+int64(k*(k+1)) {
		t.Fatalf("edges = %d, implausible for n=%d k=%d", m, n, k)
	}
	// Arriving nodes have degree >= k (their own attachments).
	for v := 0; v < n; v++ {
		if g.Degree(int32(v)) < 1 {
			t.Fatalf("vertex %d isolated", v)
		}
	}
}

// TestBarabasiAlbertDegreeSkew asserts the property the generator is
// for: a heavy tail. The maximum degree of a BA graph grows like
// sqrt(n), far above the mean; an ER graph of the same size stays
// within a few multiples of its mean.
func TestBarabasiAlbertDegreeSkew(t *testing.T) {
	const n, k = 2000, 3
	ba := BarabasiAlbert(n, k, 1)
	avg := float64(2*ba.NumEdges()) / float64(n)
	if max := float64(ba.MaxDegree()); max < 5*avg {
		t.Fatalf("BA max degree %.0f < 5x mean %.1f: no heavy tail", max, avg)
	}
	er := ErdosRenyi(n, int(ba.NumEdges()), 1)
	if ba.MaxDegree() <= 2*er.MaxDegree() {
		t.Fatalf("BA max degree %d not clearly above ER max degree %d at equal size",
			ba.MaxDegree(), er.MaxDegree())
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := BarabasiAlbert(500, 2, 42)
	b := BarabasiAlbert(500, 2, 42)
	if !Equal(a, b) {
		t.Fatal("same seed produced different graphs")
	}
	c := BarabasiAlbert(500, 2, 43)
	if Equal(a, c) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestBarabasiAlbertSmall(t *testing.T) {
	// n smaller than the seed clique still yields a simple graph.
	g := BarabasiAlbert(3, 5, 0)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("tiny BA graph: %v", g)
	}
}

// TestGeneratorsPinned holds the SHA-256 of every generator's edge list
// on the shapes the benchmark and the tests use, so a change to a
// generator's loop or to the Builder that moves one edge fails here
// before it moves a summary digest.
func TestGeneratorsPinned(t *testing.T) {
	rows := []struct {
		name string
		g    func() *Graph
		want string
	}{
		{"hier4-served", func() *Graph { return HierCommunity(servedShape, 1) }, "c2502ef827c83cfebc1da5d7655e18e7876c625b02b8c61334df0d3dddf6ce8b"},
		{"hier3-build", func() *Graph { return HierCommunity(buildShape, 64) }, "289541146f1b6736a37fcba95cbdc5fccbffcbdbc184e7d34164a4d27be508b1"},
		{"ba5000x3", func() *Graph { return BarabasiAlbert(5000, 3, 64) }, "308c7523132f65ce353f306d530421dd28194e839e441dc8e1358c8fd61c3b6f"},
		{"er2000x8000", func() *Graph { return ErdosRenyi(2000, 8000, 5) }, "4a26cd2e186a9055a138ae3ecbb8f2cb17fd5170b05a9b50c766d840ce49895f"},
		{"rmat12x8", func() *Graph { return RMAT(12, 8, 0.57, 0.19, 0.19, 3) }, "0841fc8a36dd6300b3d42a7166232d7fa75939e79ed0a968e601f8a270afe131"},
		{"caveman50x10", func() *Graph { return Caveman(50, 10, 40, 9) }, "a63522f3d6765ef8fd8200b5d3061551e0de849839013a218f1363f597ca75c5"},
		{"bicores20", func() *Graph { return BipartiteCores(20, 8, 12, 300, 5) }, "935e0583d31d81daa8268b8dfd4459a60505370dde22fd51ada3cd3a86d339e1"},
	}
	for _, row := range rows {
		h := sha256.New()
		if err := WriteEdgeList(h, row.g()); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != row.want {
			t.Errorf("%s: edge list sha256 %s, want %s", row.name, got, row.want)
		}
	}
}
