package mosso

import (
	"testing"

	"repro/internal/graph"
)

func TestLosslessBatch(t *testing.T) {
	g := graph.Caveman(4, 6, 3, 5)
	s := Summarize(g, 7, Config{})
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("not lossless")
	}
}

func TestMovesNeverIncreaseLocalCost(t *testing.T) {
	// tryMove reverts bad moves, so streaming a compressible graph must
	// end at or below the singleton cost.
	g := graph.Caveman(5, 8, 2, 13)
	s := Summarize(g, 3, Config{})
	if s.Cost() > g.NumEdges() {
		t.Fatalf("cost %d above singleton baseline %d", s.Cost(), g.NumEdges())
	}
}
