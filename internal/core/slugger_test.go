package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// mustLossless runs SLUGGER and fails the test unless the output model
// represents g exactly with per-pair nets in {0,1}.
func mustLossless(t *testing.T, g *graph.Graph, cfg Config) Stats {
	t.Helper()
	sum, stats := Summarize(g, cfg)
	if err := sum.Validate(g); err != nil {
		t.Fatalf("lossless violation: %v", err)
	}
	if sum.Cost() != stats.FinalCost {
		t.Fatalf("FinalCost %d != model cost %d", stats.FinalCost, sum.Cost())
	}
	return stats
}

func TestLosslessOnClique(t *testing.T) {
	var edges [][2]int32
	for i := int32(0); i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			edges = append(edges, [2]int32{i, j})
		}
	}
	g := graph.FromEdges(12, edges)
	sum, _ := Summarize(g, Config{T: 10, Seed: 1})
	if err := sum.Validate(g); err != nil {
		t.Fatal(err)
	}
	// A clique must compress far below |E| = 66: the hierarchy encodes it
	// with one p-self-loop plus h-edges.
	if sum.Cost() >= g.NumEdges() {
		t.Fatalf("clique cost %d did not compress below %d", sum.Cost(), g.NumEdges())
	}
}

func TestLosslessOnCaveman(t *testing.T) {
	g := graph.Caveman(6, 8, 4, 3)
	stats := mustLossless(t, g, Config{T: 15, Seed: 7})
	if stats.Merges == 0 {
		t.Fatal("expected merges on a caveman graph")
	}
}

func TestLosslessOnBipartiteCores(t *testing.T) {
	g := graph.BipartiteCores(4, 6, 7, 10, 5)
	mustLossless(t, g, Config{T: 15, Seed: 11})
}

func TestLosslessOnHierCommunity(t *testing.T) {
	g := graph.HierCommunity(graph.DefaultHierParams(), 13)
	stats := mustLossless(t, g, Config{T: 10, Seed: 3})
	if stats.FinalCost > stats.CostBeforePrune {
		t.Fatalf("pruning increased cost: %d -> %d", stats.CostBeforePrune, stats.FinalCost)
	}
}

func TestLosslessOnSparseRandom(t *testing.T) {
	g := graph.ErdosRenyi(150, 300, 17)
	mustLossless(t, g, Config{T: 8, Seed: 19})
}

func TestLosslessOnBA(t *testing.T) {
	g := graph.BarabasiAlbert(120, 3, 23)
	mustLossless(t, g, Config{T: 8, Seed: 29})
}

func TestLosslessOnRMAT(t *testing.T) {
	g := graph.RMAT(8, 6, 0.57, 0.19, 0.19, 31)
	mustLossless(t, g, Config{T: 8, Seed: 37})
}

func TestLosslessEmptyAndTinyGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.FromEdges(0, nil),
		graph.FromEdges(1, nil),
		graph.FromEdges(5, nil),
		graph.FromEdges(2, [][2]int32{{0, 1}}),
		graph.FromEdges(3, [][2]int32{{0, 1}, {1, 2}}),
	} {
		mustLossless(t, g, Config{T: 3, Seed: 1})
	}
}

func TestLosslessWithoutPruning(t *testing.T) {
	g := graph.Caveman(5, 6, 3, 41)
	sum, stats := Summarize(g, Config{T: 10, Seed: 43, SkipPrune: true})
	if err := sum.Validate(g); err != nil {
		t.Fatal(err)
	}
	if stats.CostBeforePrune != stats.FinalCost {
		t.Fatalf("SkipPrune changed cost: %d vs %d", stats.CostBeforePrune, stats.FinalCost)
	}
}

func TestPruningNeverIncreasesCost(t *testing.T) {
	g := graph.HierCommunity(graph.DefaultHierParams(), 47)
	var snaps []PruneSnapshot
	Summarize(g, Config{T: 10, Seed: 5, OnPruneSubstep: func(round, substep int, s PruneSnapshot) {
		snaps = append(snaps, s)
	}})
	if len(snaps) < 4 {
		t.Fatalf("expected >= 4 snapshots, got %d", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Cost > snaps[i-1].Cost {
			t.Fatalf("substep %d increased cost: %d -> %d", i, snaps[i-1].Cost, snaps[i].Cost)
		}
	}
}

func TestHeightBoundRespected(t *testing.T) {
	g := graph.HierCommunity(graph.DefaultHierParams(), 53)
	for _, hb := range []int{1, 2, 5} {
		sum, _ := Summarize(g, Config{T: 10, Seed: 9, Hb: hb})
		if err := sum.Validate(g); err != nil {
			t.Fatalf("Hb=%d: %v", hb, err)
		}
		if h := sum.MaxHeight(); h > hb {
			t.Fatalf("Hb=%d violated: max height %d", hb, h)
		}
	}
}

func TestHeightBoundMonotoneCompression(t *testing.T) {
	// Larger height bounds should not compress (much) worse; we assert
	// the unbounded run beats the Hb=1 run on a hierarchical graph.
	g := graph.HierCommunity(graph.DefaultHierParams(), 59)
	s1, _ := Summarize(g, Config{T: 15, Seed: 2, Hb: 1})
	sInf, _ := Summarize(g, Config{T: 15, Seed: 2})
	if sInf.Cost() > s1.Cost() {
		t.Fatalf("unbounded (%d) worse than Hb=1 (%d)", sInf.Cost(), s1.Cost())
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := graph.Caveman(5, 6, 3, 61)
	a, _ := Summarize(g, Config{T: 8, Seed: 77})
	b, _ := Summarize(g, Config{T: 8, Seed: 77})
	if a.Cost() != b.Cost() || a.NumSupernodes() != b.NumSupernodes() {
		t.Fatalf("non-deterministic: cost %d/%d supernodes %d/%d",
			a.Cost(), b.Cost(), a.NumSupernodes(), b.NumSupernodes())
	}
}

func TestMoreIterationsNeverMuchWorse(t *testing.T) {
	// Table III shape: compression improves (or stays) with more T.
	g := graph.HierCommunity(graph.DefaultHierParams(), 67)
	s1, _ := Summarize(g, Config{T: 1, Seed: 4})
	s20, _ := Summarize(g, Config{T: 20, Seed: 4})
	if s20.Cost() > s1.Cost() {
		t.Fatalf("T=20 cost %d worse than T=1 cost %d", s20.Cost(), s1.Cost())
	}
}

func TestCostNeverExceedsInput(t *testing.T) {
	// SLUGGER starts at cost |E| and only performs cost-reducing merges
	// and prunes, so the output can never exceed |E|.
	for seed := int64(0); seed < 5; seed++ {
		g := graph.ErdosRenyi(80, 200, seed)
		sum, _ := Summarize(g, Config{T: 5, Seed: seed})
		if sum.Cost() > g.NumEdges() {
			t.Fatalf("seed %d: cost %d > |E| %d", seed, sum.Cost(), g.NumEdges())
		}
	}
}

func TestThresholdSchedule(t *testing.T) {
	if Threshold(1, 20) != 0.5 {
		t.Fatalf("theta(1) = %f", Threshold(1, 20))
	}
	if Threshold(19, 20) != 1.0/20 {
		t.Fatalf("theta(19) = %f", Threshold(19, 20))
	}
	if Threshold(20, 20) != 0 {
		t.Fatalf("theta(T) = %f, want 0", Threshold(20, 20))
	}
}

func TestOnIterationHook(t *testing.T) {
	g := graph.Caveman(4, 5, 2, 71)
	var costs []int64
	Summarize(g, Config{T: 5, Seed: 3, OnIteration: func(tt int, c int64) {
		costs = append(costs, c)
	}})
	if len(costs) != 5 {
		t.Fatalf("expected 5 iteration callbacks, got %d", len(costs))
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] > costs[i-1] {
			t.Fatalf("iteration %d increased cost %d -> %d", i+1, costs[i-1], costs[i])
		}
	}
}

// Property test: SLUGGER is lossless on random graphs of several
// families, across seeds and configurations.
func TestLosslessProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		switch rng.Intn(4) {
		case 0:
			g = graph.ErdosRenyi(20+rng.Intn(60), 40+rng.Intn(150), seed)
		case 1:
			g = graph.Caveman(2+rng.Intn(4), 3+rng.Intn(6), rng.Intn(5), seed)
		case 2:
			g = graph.BarabasiAlbert(20+rng.Intn(50), 1+rng.Intn(3), seed)
		default:
			g = graph.BipartiteCores(1+rng.Intn(3), 2+rng.Intn(5), 2+rng.Intn(5), rng.Intn(8), seed)
		}
		cfg := Config{T: 1 + rng.Intn(8), Seed: seed, Hb: []int{0, 0, 2, 4}[rng.Intn(4)]}
		sum, _ := Summarize(g, cfg)
		return sum.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Invariant test at the bookkeeping level: after every iteration the
// maintained cost equals the recomputed cost.
func TestBookkeepingConsistency(t *testing.T) {
	g := graph.HierCommunity(graph.HierParams{
		Levels: 2, Branching: 3, LeafSize: 6,
		Density: []float64{0.01, 0.2, 0.8},
	}, 83)
	rng := rand.New(rand.NewSource(5))
	st := newState(g, rng)
	for t2 := 1; t2 <= 5; t2++ {
		st.runIteration(context.Background(), st.generateCandidates(t2, 100, 5), t2, 5, Threshold(t2, 5), 0)
		checkAdjacency(t, st) // pcost must match the actual edge lists
	}
}

// BenchmarkSummarize times whole builds on the two build shapes of
// `go run ./bench` (build_hier and build_skew, graph 0 at seed 1), at
// T = 20 and Workers = 1. Run with -count 10 and compare medians.
func BenchmarkSummarize(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"hier", graph.HierCommunity(graph.HierParams{
			Levels: 3, Branching: 5, LeafSize: 12, Density: []float64{0.0008, 0.01, 0.2, 0.9},
		}, 64)},
		{"skew", graph.BarabasiAlbert(5000, 3, 64)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Summarize(tc.g, Config{T: 20, Seed: 1, Workers: 1})
			}
		})
	}
}
