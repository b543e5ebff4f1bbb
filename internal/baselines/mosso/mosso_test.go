package mosso

import (
	"math/rand"
	"testing"

	"repro/internal/flatgreedy"
	"repro/internal/graph"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Escape != 0.3 || c.Trials != 120 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestLosslessBatch(t *testing.T) {
	g := graph.Caveman(4, 6, 3, 5)
	s := Summarize(g, 7, Config{Trials: 30})
	if !graph.Equal(s.Decode(), g) {
		t.Fatal("not lossless")
	}
}

func TestIncrementalStreamStaysLossless(t *testing.T) {
	g := graph.Caveman(3, 6, 2, 9)
	gr := flatgreedy.NewIncremental(g.NumNodes())
	rng := rand.New(rand.NewSource(1))
	count := 0
	g.ForEachEdge(func(u, v int32) {
		gr.AddEdge(u, v)
		ProcessInsertion(gr, u, v, Config{Trials: 15}, rng)
		count++
		if count%20 == 0 {
			if !graph.Equal(gr.Encode().Decode(), gr.Graph()) {
				t.Fatalf("lossless violated after %d insertions", count)
			}
		}
	})
	if !graph.Equal(gr.Encode().Decode(), g) {
		t.Fatal("final summary not lossless")
	}
}

func TestMovesNeverIncreaseLocalCost(t *testing.T) {
	// tryMove reverts bad moves, so streaming a compressible graph must
	// end at or below the singleton cost.
	g := graph.Caveman(5, 8, 2, 13)
	s := Summarize(g, 3, Config{Trials: 60})
	if s.Cost() > g.NumEdges() {
		t.Fatalf("cost %d above singleton baseline %d", s.Cost(), g.NumEdges())
	}
}

func TestProcessInsertionIsolatedEndpoint(t *testing.T) {
	gr := flatgreedy.NewIncremental(4)
	rng := rand.New(rand.NewSource(1))
	// v has no neighbors: must be a no-op, not a panic.
	ProcessInsertion(gr, 0, 3, Config{}, rng)
}
