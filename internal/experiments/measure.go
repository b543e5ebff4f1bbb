package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/pkg/slug"
)

// Result reports the mean of one or more summarization runs.
type Result struct {
	Algorithm    string
	Dataset      string
	Cost         int64         // encoding cost (Eq. (1) or Eq. (11))
	Edges        int64         // |E| of the input
	RelativeSize float64       // Cost / |E| (Eq. (10)/(11))
	Elapsed      time.Duration // wall-clock summarization time
}

// algorithm is one compared summarizer: a pkg/slug algorithm, the name
// the paper's tables print for it, and the options every run shares.
type algorithm struct {
	slug.Summarizer
	display string
	opts    []slug.Option
}

// run times one build of g and returns its encoding cost. The seed is
// appended after a.opts, so it wins over any WithSeed among them. Runs
// use a background context (the measurement loop is not cancellable),
// so a build error is impossible by the slug.Summarizer contract and
// treated as fatal.
func (a algorithm) run(g *graph.Graph, seed int64) (int64, time.Duration) {
	opts := append(append([]slug.Option(nil), a.opts...), slug.WithSeed(seed))
	start := time.Now()
	art, err := a.Summarize(context.Background(), g, opts...)
	elapsed := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s failed under a background context: %v", a.display, err))
	}
	return art.Cost(), elapsed
}

// measureAvg averages cost and time over trials runs (at least one)
// with distinct seeds; the paper reports means over five runs.
func measureAvg(a algorithm, dataset string, g *graph.Graph, baseSeed int64, trials int) Result {
	trials = max(trials, 1)
	var costSum int64
	var timeSum time.Duration
	for i := 0; i < trials; i++ {
		cost, elapsed := a.run(g, baseSeed+int64(i)*1000)
		costSum += cost
		timeSum += elapsed
	}
	// Cost and RelativeSize derive from the same float mean so the two
	// stay consistent (integer division used to truncate Cost while
	// RelativeSize reported the untruncated mean).
	meanCost := float64(costSum) / float64(trials)
	r := Result{
		Algorithm: a.display,
		Dataset:   dataset,
		Cost:      int64(math.Round(meanCost)),
		Edges:     g.NumEdges(),
		Elapsed:   timeSum / time.Duration(trials),
	}
	if r.Edges > 0 {
		r.RelativeSize = meanCost / float64(r.Edges)
	}
	return r
}
