// Package sweg implements the lossless mode (ε = 0) of SWeG (Shin et
// al., WWW'19), the strongest baseline in the SLUGGER paper. SWeG
// alternates min-hash candidate generation with a merging phase that
// selects partners by SuperJaccard similarity of supernode
// neighborhoods and merges them when the cost saving reaches the
// declining threshold θ(t) = 1/(1+t).
package sweg

import (
	"context"
	"math/rand"

	"repro/internal/flatgreedy"
	"repro/internal/graph"
	"repro/internal/minhash"
	"repro/internal/model"
)

// Candidate generation as in the paper: shingle re-splits at most
// maxLevels deep, then random chunks, into sets of at most maxGroup
// supernodes.
const (
	maxGroup  = 500
	maxLevels = 10
)

// Config holds SWeG parameters; the zero value uses the paper's
// settings (T = 20).
type Config struct {
	T int

	// OnIteration, if non-nil, is invoked after each merging iteration
	// with the iteration number (1-based).
	OnIteration func(t int)
}

func (c Config) withDefaults() Config {
	if c.T <= 0 {
		c.T = 20
	}
	return c
}

// Summarize runs SWeG and returns the optimal flat encoding of the
// final partition, as a height-1 hierarchy.
func Summarize(g *graph.Graph, seed int64, cfg Config) *model.Summary {
	s, _ := SummarizeCtx(context.Background(), g, seed, cfg)
	return s
}

// SummarizeCtx runs SWeG like Summarize but checks ctx between
// candidate groups: a cancelled context makes the run return promptly
// with a nil summary and ctx.Err().
func SummarizeCtx(ctx context.Context, g *graph.Graph, seed int64, cfg Config) (*model.Summary, error) {
	// Degenerate inputs may produce no candidate groups at all; honor
	// cancellation even then.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	gr := flatgreedy.New(g)
	rng := rand.New(rand.NewSource(seed))

	for t := 1; t <= cfg.T; t++ {
		theta := threshold(t, cfg.T)
		for _, group := range candidateGroups(gr, t, seed, rng) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			processGroup(gr, group, theta, rng)
		}
		if cfg.OnIteration != nil {
			cfg.OnIteration(t)
		}
	}
	return gr.Encode(), nil
}

func threshold(t, T int) float64 {
	if t >= T {
		return 0
	}
	return 1 / float64(1+t)
}

// candidateGroups groups live supernodes by neighborhood shingles.
func candidateGroups(gr *flatgreedy.Grouping, iter int, seed int64, rng *rand.Rand) [][]int32 {
	var live []int32
	for id := int32(0); id < int32(len(gr.Members)); id++ {
		if gr.Alive(id) {
			live = append(live, id)
		}
	}
	cache := make(map[int][]uint64)
	key := func(sn int32, level int) uint64 {
		sh, ok := cache[level]
		if !ok {
			levelSeed := minhash.Hash64(uint64(seed), uint64(iter)<<20|uint64(level))
			sh = minhash.Shingles(gr.G, gr.GroupOf, len(gr.Members), levelSeed)
			cache[level] = sh
		}
		return sh[sn]
	}
	return minhash.Group(live, maxGroup, maxLevels, key, rng)
}

// processGroup is SWeG's merging phase for one candidate group: pick a
// random supernode A, choose B by maximum SuperJaccard, merge when the
// actual cost saving reaches θ(t).
func processGroup(gr *flatgreedy.Grouping, group []int32, theta float64, rng *rand.Rand) {
	q := append([]int32(nil), group...)
	for len(q) > 1 {
		i := rng.Intn(len(q))
		a := q[i]
		q[i] = q[len(q)-1]
		q = q[:len(q)-1]
		if !gr.Alive(a) {
			continue
		}
		na := neighborhood(gr, a)
		best, bestJac := -1, -1.0
		for j, z := range q {
			if !gr.Alive(z) {
				continue
			}
			if jac := jaccard(na, neighborhood(gr, z)); jac > bestJac {
				bestJac = jac
				best = j
			}
		}
		if best < 0 {
			continue
		}
		b := q[best]
		if gr.Saving(a, b) >= theta {
			m := gr.Merge(a, b)
			q[best] = m
		}
	}
}

// neighborhood returns the union subnode neighborhood of a supernode as
// a set.
func neighborhood(gr *flatgreedy.Grouping, a int32) map[int32]bool {
	out := make(map[int32]bool)
	for _, v := range gr.Members[a] {
		for _, w := range gr.G.Neighbors(v) {
			out[w] = true
		}
	}
	return out
}

// jaccard returns |x ∩ y| / |x ∪ y| (0 when both are empty).
func jaccard(x, y map[int32]bool) float64 {
	if len(x) == 0 && len(y) == 0 {
		return 0
	}
	small, big := x, y
	if len(small) > len(big) {
		small, big = big, small
	}
	inter := 0
	for k := range small {
		if big[k] {
			inter++
		}
	}
	return float64(inter) / float64(len(x)+len(y)-inter)
}
