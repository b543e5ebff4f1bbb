// Package mosso implements MoSSo (Ko et al., KDD'20), the incremental
// lossless summarizer of fully dynamic graph streams, in the batch
// setting used by the SLUGGER paper's evaluation: edges are processed
// one at a time; each insertion triggers randomized "move" proposals in
// which an endpoint either escapes to a fresh singleton supernode (with
// probability e) or tries joining the supernode of a sampled neighbor,
// accepting moves that reduce the encoding cost (e = 0.3, c = 120
// trials per insertion, capped).
package mosso

import (
	"context"
	"math/rand"

	"repro/internal/flatgreedy"
	"repro/internal/graph"
	"repro/internal/model"
)

// The paper's settings: escape probability e and candidate samples c
// per processed edge endpoint.
const (
	escape = 0.3
	trials = 120
)

// Config holds MoSSo's run options; the zero value is usable.
type Config struct {
	// OnProgress, if non-nil, is invoked periodically (about ten times
	// per run, and always after the last edge) with the number of
	// streamed edges processed so far and the total.
	OnProgress func(processed, total int)
}

// Summarize streams the edges of g in random order through the
// incremental summarizer and returns the optimal flat encoding of the
// final partition, as a height-1 hierarchy.
func Summarize(g *graph.Graph, seed int64, cfg Config) *model.Summary {
	s, _ := SummarizeCtx(context.Background(), g, seed, cfg)
	return s
}

// SummarizeCtx runs MoSSo like Summarize but checks ctx before every
// streamed edge: a cancelled context makes the run return promptly with
// a nil summary and ctx.Err().
func SummarizeCtx(ctx context.Context, g *graph.Graph, seed int64, cfg Config) (*model.Summary, error) {
	// An edgeless graph skips the stream loop entirely; honor
	// cancellation even then.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gr := flatgreedy.New(g)
	rng := rand.New(rand.NewSource(seed))

	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	step := len(edges) / 10
	if step == 0 {
		step = 1
	}
	for i, e := range edges {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		correctivePass(gr, e[1], rng)
		correctivePass(gr, e[0], rng)
		if cfg.OnProgress != nil && ((i+1)%step == 0 || i+1 == len(edges)) {
			cfg.OnProgress(i+1, len(edges))
		}
	}
	return gr.Encode(), nil
}

// correctivePass runs the randomized move proposals around vertex v:
// each trial picks a random neighbor of v, which either escapes to a
// fresh singleton supernode or tries joining the supernode of another
// sampled neighbor, keeping moves that do not increase the local
// encoding cost.
func correctivePass(gr *flatgreedy.Grouping, v int32, rng *rand.Rand) {
	nbrs := gr.G.Neighbors(v)
	for i := 0; i < min(trials, len(nbrs)); i++ {
		// The node proposing a move: a random neighbor of v (the edge
		// event perturbs v's neighborhood, so corrections concentrate
		// there).
		x := nbrs[rng.Intn(len(nbrs))]
		if rng.Float64() < escape {
			tryEscape(gr, x)
			continue
		}
		// Propose joining the supernode of another random neighbor.
		y := nbrs[rng.Intn(len(nbrs))]
		target := gr.GroupOf[y]
		if target != gr.GroupOf[x] {
			tryMove(gr, x, target)
		}
	}
}

// tryEscape proposes moving x into a fresh singleton supernode,
// releasing the group for reuse when the move is rejected — long
// streams make millions of escape proposals, and without recycling
// every rejected one would leak a dead group slot.
func tryEscape(gr *flatgreedy.Grouping, x int32) {
	fresh := gr.NewGroup()
	tryMove(gr, x, fresh)
	if gr.Size(fresh) == 0 {
		gr.ReleaseGroup(fresh)
	}
}

// tryMove moves vertex x into group target and keeps the move only if
// the local encoding cost does not increase.
func tryMove(gr *flatgreedy.Grouping, x, target int32) {
	from := gr.GroupOf[x]
	if from == target {
		return
	}
	before := localCost(gr, x, from, target)
	gr.MoveVertex(x, target)
	after := localCost(gr, x, from, target)
	if after >= before {
		gr.MoveVertex(x, from) // revert
	}
}

// localCost sums the pair costs of every group pair whose encoding can
// change when x moves between groups a and b: pairs involving a or b
// and the groups of x's neighbors.
func localCost(gr *flatgreedy.Grouping, x, a, b int32) int64 {
	var c int64
	seen := make(map[int64]bool)
	addPair := func(p, q int32) {
		if p > q {
			p, q = q, p
		}
		k := int64(p)<<32 | int64(q)
		if !seen[k] {
			seen[k] = true
			c += gr.PairCost(p, q)
		}
	}
	for _, g := range []int32{a, b} {
		addPair(g, g)
		addPair(a, b)
		for _, w := range gr.G.Neighbors(x) {
			addPair(g, gr.GroupOf[w])
		}
	}
	// Membership h*-edges change when groups cross the singleton
	// boundary; account for the sizes of a and b.
	for _, g := range []int32{a, b} {
		if gr.Size(g) >= 2 {
			c += gr.Size(g)
		}
	}
	return c
}
