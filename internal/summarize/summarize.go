// Package summarize is the experiment harness's thin measurement
// adapter: it wraps summarizers — today unified-API algorithms from
// pkg/slug, via FromSlug — behind a cost-reporting interface and
// produces the shared Result type (relative output size per
// Eq. (10)/(11), wall-clock time).
package summarize

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/pkg/slug"
)

// Result reports one summarization run.
type Result struct {
	Algorithm    string
	Dataset      string
	Cost         int64         // encoding cost (Eq. (1) or Eq. (11))
	Edges        int64         // |E| of the input
	RelativeSize float64       // Cost / |E|
	Elapsed      time.Duration // wall-clock summarization time
}

// Summarizer is one summarization algorithm. Run must return the
// encoding cost of its output model; Decode-based losslessness is
// checked in each algorithm's own tests.
type Summarizer interface {
	Name() string
	// Run summarizes g with the given seed and returns the encoding cost.
	Run(g *graph.Graph, seed int64) int64
}

// Func adapts a function to the Summarizer interface.
type Func struct {
	AlgName string
	F       func(g *graph.Graph, seed int64) int64
}

// Name returns the algorithm name.
func (f Func) Name() string { return f.AlgName }

// Run invokes the adapted function.
func (f Func) Run(g *graph.Graph, seed int64) int64 { return f.F(g, seed) }

// FromSlug adapts a unified-API summarizer (pkg/slug) to the
// measurement interface, reporting the artifact's encoding cost under
// the given display name. The per-run seed is appended after opts, so
// it wins over any WithSeed among them. Runs use a background context
// (the measurement loop is not cancellable), so a build error is
// impossible by the slug.Summarizer contract and treated as fatal.
func FromSlug(s slug.Summarizer, display string, opts ...slug.Option) Summarizer {
	return Func{AlgName: display, F: func(g *graph.Graph, seed int64) int64 {
		runOpts := append(append([]slug.Option(nil), opts...), slug.WithSeed(seed))
		art, err := s.Summarize(context.Background(), g, runOpts...)
		if err != nil {
			panic(fmt.Sprintf("summarize: %s failed under a background context: %v", display, err))
		}
		return art.Cost()
	}}
}

// Measure runs s on g and fills a Result.
func Measure(s Summarizer, dataset string, g *graph.Graph, seed int64) Result {
	start := time.Now()
	cost := s.Run(g, seed)
	elapsed := time.Since(start)
	m := g.NumEdges()
	rel := 0.0
	if m > 0 {
		rel = float64(cost) / float64(m)
	}
	return Result{
		Algorithm:    s.Name(),
		Dataset:      dataset,
		Cost:         cost,
		Edges:        m,
		RelativeSize: rel,
		Elapsed:      elapsed,
	}
}

// MeasureAvg averages cost and time over trials runs with distinct
// seeds (the paper reports means over five runs).
func MeasureAvg(s Summarizer, dataset string, g *graph.Graph, baseSeed int64, trials int) Result {
	if trials < 1 {
		trials = 1
	}
	var costSum int64
	var timeSum time.Duration
	for i := 0; i < trials; i++ {
		r := Measure(s, dataset, g, baseSeed+int64(i)*1000)
		costSum += r.Cost
		timeSum += r.Elapsed
	}
	m := g.NumEdges()
	// Derive both Cost and RelativeSize from the same float mean so the
	// two stay consistent (integer division used to truncate Cost while
	// RelativeSize reported the untruncated mean).
	meanCost := float64(costSum) / float64(trials)
	rel := 0.0
	if m > 0 {
		rel = meanCost / float64(m)
	}
	return Result{
		Algorithm:    s.Name(),
		Dataset:      dataset,
		Cost:         int64(math.Round(meanCost)),
		Edges:        m,
		RelativeSize: rel,
		Elapsed:      timeSum / time.Duration(trials),
	}
}
