// Package randomized implements the RANDOMIZED lossless graph
// summarizer of Navlakha et al. (SIGMOD'08), as described in Sect. V of
// the SLUGGER paper: repeatedly pick a random supernode u and merge it
// with the supernode in its 2-hop neighborhood whose merger reduces the
// encoding cost most; finish u when no merger helps.
package randomized

import (
	"context"
	"math/rand"
	"slices"

	"repro/internal/flatgreedy"
	"repro/internal/graph"
	"repro/internal/model"
)

// Summarize runs the randomized greedy search and returns the optimal
// flat encoding of the resulting partition, as a height-1 hierarchy.
func Summarize(g *graph.Graph, seed int64) *model.Summary {
	s, _ := SummarizeCtx(context.Background(), g, seed)
	return s
}

// SummarizeCtx runs the randomized greedy search like Summarize but
// checks ctx on every pick from the unfinished pool: a cancelled
// context makes the run return promptly with a nil summary and
// ctx.Err().
func SummarizeCtx(ctx context.Context, g *graph.Graph, seed int64) (*model.Summary, error) {
	// A vertexless graph has an empty pool; honor cancellation even then.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gr := flatgreedy.New(g)
	rng := rand.New(rand.NewSource(seed))

	unfinished := make([]int32, g.NumNodes())
	for i := range unfinished {
		unfinished[i] = int32(i)
	}
	for len(unfinished) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i := rng.Intn(len(unfinished))
		u := unfinished[i]
		if !gr.Alive(u) {
			unfinished[i] = unfinished[len(unfinished)-1]
			unfinished = unfinished[:len(unfinished)-1]
			continue
		}
		best, bestSaving := int32(-1), 0.0
		for _, w := range twoHopGroups(gr, u) {
			if s := gr.Saving(u, w); s > bestSaving {
				bestSaving = s
				best = w
			}
		}
		if best >= 0 {
			gr.Merge(u, best)
			// u stays in the pool: further mergers may still help.
			continue
		}
		unfinished[i] = unfinished[len(unfinished)-1]
		unfinished = unfinished[:len(unfinished)-1]
	}
	return gr.Encode(), nil
}

// twoHopGroups returns the distinct groups within two hops of group u
// (excluding u itself), in ascending order so that the caller's
// best-saving tie-break does not depend on map iteration order.
func twoHopGroups(gr *flatgreedy.Grouping, u int32) []int32 {
	seen := map[int32]bool{u: true}
	var out []int32
	add := func(w int32) {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	var firstHop []int32
	for w := range gr.Nbr[u] {
		if w != u {
			add(w)
			firstHop = append(firstHop, w)
		}
	}
	for _, w := range firstHop {
		for x := range gr.Nbr[w] {
			if x != w {
				add(x)
			}
		}
	}
	slices.Sort(out)
	return out
}
