package experiments

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/pkg/slug"
)

// costArtifact is an artifact that only knows its cost.
type costArtifact struct {
	slug.Artifact
	cost int64
}

func (a costArtifact) Cost() int64 { return a.cost }

// scripted is a slug.Summarizer answering with the next cost of a
// fixed list (the last one repeats), counting its runs.
type scripted struct {
	costs []int64
	runs  int
}

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) Summarize(context.Context, *graph.Graph, ...slug.Option) (slug.Artifact, error) {
	time.Sleep(time.Microsecond)
	cost := s.costs[min(s.runs, len(s.costs)-1)]
	s.runs++
	return costArtifact{cost: cost}, nil
}

func TestMeasureFillsResult(t *testing.T) {
	g := graph.ErdosRenyi(20, 50, 1)
	r := measureAvg(algorithm{Summarizer: &scripted{costs: []int64{25}}, display: "x"}, "ds", g, 7, 1)
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
	r := measureAvg(algorithm{Summarizer: &scripted{costs: []int64{0}}, display: "x"}, "empty", g, 1, 1)
	if r.RelativeSize != 0 {
		t.Fatalf("relative size on empty graph = %f", r.RelativeSize)
	}
}

// TestMeasureAvgMean: Cost and RelativeSize come from the same float
// mean (integer division used to truncate Cost while RelativeSize
// reported the untruncated mean), over exactly `trials` runs.
func TestMeasureAvgMean(t *testing.T) {
	g := graph.ErdosRenyi(20, 50, 1)
	s := &scripted{costs: []int64{10, 11}}
	r := measureAvg(algorithm{Summarizer: s, display: "x"}, "ds", g, 100, 2)
	if s.runs != 2 {
		t.Fatalf("trials = %d, want 2", s.runs)
	}
	if r.Cost != 11 { // 10.5 rounds half away from zero
		t.Fatalf("mean cost = %d, want 11", r.Cost)
	}
	if want := 10.5 / float64(g.NumEdges()); r.RelativeSize != want {
		t.Fatalf("relative size = %v, want %v (the unrounded mean over |E|)", r.RelativeSize, want)
	}
	// Invalid trial count falls back to 1.
	s.runs = 0
	measureAvg(algorithm{Summarizer: s, display: "x"}, "ds", g, 100, 0)
	if s.runs != 1 {
		t.Fatalf("trials=0 should run once, ran %d", s.runs)
	}
}

// recording wraps a real algorithm and keeps every artifact it built.
type recording struct {
	slug.Summarizer
	built [][]byte
}

func (r *recording) Summarize(ctx context.Context, g *graph.Graph, opts ...slug.Option) (slug.Artifact, error) {
	art, err := r.Summarizer.Summarize(ctx, g, opts...)
	if err == nil {
		var buf bytes.Buffer
		if _, err := art.WriteTo(&buf); err != nil {
			return nil, err
		}
		r.built = append(r.built, buf.Bytes())
	}
	return art, err
}

// TestMeasureAvgUsesDistinctSeeds: the per-trial seed reaches the
// algorithm (after, and so overriding, the shared options): a seeded
// algorithm builds a different artifact on each trial, and the same
// ones when the base seed repeats.
func TestMeasureAvgUsesDistinctSeeds(t *testing.T) {
	g := graph.ErdosRenyi(60, 240, 1)
	run := func(baseSeed int64) [][]byte {
		rec := &recording{Summarizer: slug.Get("slugger")}
		opts := []slug.Option{slug.WithIterations(2), slug.WithSeed(99)}
		measureAvg(algorithm{Summarizer: rec, display: "Slugger", opts: opts}, "ds", g, baseSeed, 3)
		if len(rec.built) != 3 {
			t.Fatalf("trials = %d, want 3", len(rec.built))
		}
		return rec.built
	}
	a, b := run(100), run(100)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("trial %d differs between two runs with the same base seed", i)
		}
	}
	if bytes.Equal(a[0], a[1]) && bytes.Equal(a[1], a[2]) {
		t.Fatal("all three trials built the same artifact: the per-trial seed did not reach the algorithm")
	}
}
