package summarize

import (
	"testing"
	"time"

	"repro/internal/graph"
)

func constAlg(name string, cost int64) Func {
	return Func{AlgName: name, F: func(g *graph.Graph, seed int64) int64 {
		time.Sleep(time.Microsecond)
		return cost
	}}
}

func TestMeasureFillsResult(t *testing.T) {
	g := graph.ErdosRenyi(20, 50, 1)
	r := Measure(constAlg("x", 25), "ds", g, 7)
	if r.Algorithm != "x" || r.Dataset != "ds" {
		t.Fatalf("labels wrong: %+v", r)
	}
	if r.Cost != 25 || r.Edges != g.NumEdges() {
		t.Fatalf("cost/edges wrong: %+v", r)
	}
	want := 25.0 / float64(g.NumEdges())
	if r.RelativeSize != want {
		t.Fatalf("relative size = %f, want %f", r.RelativeSize, want)
	}
	if r.Elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
}

func TestMeasureEmptyGraph(t *testing.T) {
	g := graph.FromEdges(3, nil)
	r := Measure(constAlg("x", 0), "empty", g, 1)
	if r.RelativeSize != 0 {
		t.Fatalf("relative size on empty graph = %f", r.RelativeSize)
	}
}

func TestMeasureAvgUsesDistinctSeeds(t *testing.T) {
	g := graph.ErdosRenyi(20, 50, 1)
	var seeds []int64
	alg := Func{AlgName: "seedcheck", F: func(_ *graph.Graph, seed int64) int64 {
		seeds = append(seeds, seed)
		return 10
	}}
	r := MeasureAvg(alg, "ds", g, 100, 3)
	if len(seeds) != 3 {
		t.Fatalf("trials = %d, want 3", len(seeds))
	}
	if seeds[0] == seeds[1] || seeds[1] == seeds[2] {
		t.Fatalf("seeds not distinct: %v", seeds)
	}
	if r.Cost != 10 {
		t.Fatalf("avg cost = %d", r.Cost)
	}
	// Invalid trial count falls back to 1.
	seeds = nil
	MeasureAvg(alg, "ds", g, 100, 0)
	if len(seeds) != 1 {
		t.Fatalf("trials=0 should run once, ran %d", len(seeds))
	}
}
