package sags

import (
	"testing"

	"repro/internal/flatgreedy"
	"repro/internal/graph"
)

// The zero Config runs the paper's b = 10 bands and reports each one.
func TestConfigDefaults(t *testing.T) {
	var seen []int
	Summarize(graph.Caveman(3, 5, 2, 1), 1, Config{OnBand: func(band, total int) {
		if total != 10 {
			t.Fatalf("band %d reported %d bands, want 10", band, total)
		}
		seen = append(seen, band)
	}})
	if len(seen) != 10 || seen[0] != 1 || seen[9] != 10 {
		t.Fatalf("OnBand saw bands %v, want 1..10", seen)
	}
}

func TestLosslessOnCaveman(t *testing.T) {
	g := graph.Caveman(5, 8, 3, 7)
	s := Summarize(g, 3, Config{})
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("not lossless")
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
	// Twin vertices (identical neighborhoods) share a band signature
	// whenever every row's minimum falls on a common neighbor rather
	// than on a twin's own hash — in some band of the run, so SAGS can
	// find them.
	g := graph.BipartiteCores(1, 2, 6, 0, 3)
	gr := flatgreedy.New(g)
	shared := 0
	for band := 0; band < bands; band++ {
		if sigs := bandSignatures(gr, 1, band); sigs[0] == sigs[1] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("twins 0 and 1 share no band signature in %d bands", bands)
	}
}
