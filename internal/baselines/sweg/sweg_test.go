package sweg

import (
	"testing"

	"repro/internal/flatgreedy"
	"repro/internal/graph"
	"repro/internal/minhash"
)

func TestThresholdSchedule(t *testing.T) {
	if threshold(1, 20) != 0.5 || threshold(20, 20) != 0 {
		t.Fatal("threshold schedule wrong")
	}
}

func TestJaccard(t *testing.T) {
	set := func(xs ...int32) map[int32]bool {
		m := make(map[int32]bool)
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	if j := jaccard(set(1, 2, 3), set(2, 3, 4)); j != 0.5 {
		t.Fatalf("jaccard = %f, want 0.5", j)
	}
	if j := jaccard(set(), set()); j != 0 {
		t.Fatalf("jaccard of empties = %f", j)
	}
	if j := jaccard(set(1), set(1)); j != 1 {
		t.Fatalf("jaccard of equal sets = %f", j)
	}
}

func TestNeighborhoodUnion(t *testing.T) {
	g := graph.FromEdges(5, [][2]int32{{0, 2}, {1, 3}, {1, 2}})
	gr := flatgreedy.New(g)
	gr.Merge(0, 1)
	nb := neighborhood(gr, 0)
	for _, want := range []int32{2, 3} {
		if !nb[want] {
			t.Fatalf("neighborhood missing %d: %v", want, nb)
		}
	}
	if len(nb) != 2 {
		t.Fatalf("neighborhood = %v", nb)
	}
}

func TestSupernodeShinglesFoldMembers(t *testing.T) {
	g := graph.FromEdges(4, [][2]int32{{0, 1}, {2, 3}})
	gr := flatgreedy.New(g)
	before := minhash.Shingles(g, gr.GroupOf, len(gr.Members), 9)
	gr.Merge(0, 2)
	after := minhash.Shingles(g, gr.GroupOf, len(gr.Members), 9)
	// The merged supernode's shingle is the min of its members'.
	want := before[0]
	if before[2] < want {
		want = before[2]
	}
	if after[0] != want {
		t.Fatalf("merged shingle = %d, want %d", after[0], want)
	}
}

func TestTwinsMergeUnderSWeG(t *testing.T) {
	// Vertices 0 and 1 share the 6 same neighbors: SuperJaccard 1.0 and
	// a large saving, so SWeG must merge them.
	g := graph.BipartiteCores(1, 2, 6, 0, 3)
	s := Summarize(g, 5, Config{T: 10})
	if s.Parent[0] != s.Parent[1] || int(s.Parent[0]) < s.N {
		t.Fatalf("twins not merged: %v", s.Parent)
	}
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("not lossless")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.T != 20 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}
