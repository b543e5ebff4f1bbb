package sags

import (
	"testing"

	"repro/internal/graph"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.H != 30 || c.B != 10 || c.P != 0.3 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestLosslessOnCaveman(t *testing.T) {
	g := graph.Caveman(5, 8, 3, 7)
	s := Summarize(g, 3, Config{})
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("not lossless")
	}
}

func TestHighProbabilityMergesMore(t *testing.T) {
	g := graph.Caveman(6, 8, 2, 9)
	low := Summarize(g, 3, Config{P: 0.05})
	high := Summarize(g, 3, Config{P: 0.95})
	// A flat supernode is a root of the height-1 hierarchy; every other
	// supernode has one h-edge.
	lowGroups := low.NumSupernodes() - int(low.HCount())
	highGroups := high.NumSupernodes() - int(high.HCount())
	if highGroups >= lowGroups {
		t.Fatalf("p=0.95 produced %d groups, p=0.05 produced %d; expected fewer",
			highGroups, lowGroups)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := graph.Caveman(4, 6, 2, 11)
	a := Summarize(g, 5, Config{})
	b := Summarize(g, 5, Config{})
	if a.Cost() != b.Cost() {
		t.Fatal("not deterministic")
	}
}

func TestBandSignaturesGroupTwins(t *testing.T) {
	// Twin vertices (identical neighborhoods) must share every band
	// signature, so SAGS can find them.
	g := graph.BipartiteCores(1, 2, 6, 0, 3)
	s := Summarize(g, 1, Config{P: 1.0})
	if s.Parent[0] != s.Parent[1] || int(s.Parent[0]) < s.N {
		t.Fatalf("twins not merged with p=1: %v", s.Parent)
	}
}
